// Golden equivalence suite for the tape-free inference fast path
// (nn/infer.h): the autograd tape forward is the reference
// implementation, and the frozen forward-only path must reproduce it —
// activations to within 1e-9 elementwise, thresholded marks exactly —
// across random models, sequence lengths {1, 7, 64}, and all three
// network filter types. Also pins the InferenceContext reuse contract:
// recycling one arena across calls of different shapes must not change
// any result.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/shedding_filter.h"
#include "dlacep/tcn_filter.h"
#include "dlacep/window_filter.h"
#include "nn/infer.h"
#include "nn/layers.h"
#include "nn/tape.h"
#include "serve/filter.h"
#include "serve/registry.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::SmallStream;

constexpr double kTol = 1e-9;
const size_t kSeqLens[] = {1, 7, 64};

// ---------------------------------------------------------------------
// Layer-level activation equivalence.

TEST(InferEquivalence, DenseMatchesTape) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Dense dense("d", 5, 9, &rng);
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 5, 1.0, &rng);
      Tape tape;
      const Matrix& ref = dense.Forward(&tape, tape.Input(x)).value();

      const DenseInfer frozen = Freeze(dense);
      Matrix out(t, 9);
      frozen.Forward(x, &out);
      EXPECT_LE(ref.MaxAbsDiff(out), kTol) << "seed " << seed << " T " << t;
    }
  }
}

TEST(InferEquivalence, StackedBiLstmMatchesTape) {
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    StackedBiLstm stack("s", 4, 6, 2, &rng);
    const StackedBiLstmInfer frozen = Freeze(stack);
    InferenceContext ctx;
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 4, 1.0, &rng);
      Tape tape;
      const Matrix& ref = stack.Forward(&tape, tape.Input(x)).value();

      ctx.Reset();
      const size_t offsets[] = {0, t};
      const Matrix& out = frozen.ForwardBatch(&ctx, x, offsets);
      ASSERT_EQ(ref.rows(), out.rows());
      ASSERT_EQ(ref.cols(), out.cols());
      EXPECT_LE(ref.MaxAbsDiff(out), kTol) << "seed " << seed << " T " << t;
    }
  }
}

TEST(InferEquivalence, TcnMatchesTape) {
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    Tcn tcn("t", 3, 5, 2, 3, &rng);
    const TcnInfer frozen = Freeze(tcn);
    InferenceContext ctx;
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 3, 1.0, &rng);
      Tape tape;
      const Matrix& ref = tcn.Forward(&tape, tape.Input(x)).value();

      ctx.Reset();
      const size_t offsets[] = {0, t};
      const Matrix& out = frozen.ForwardBatch(&ctx, x, offsets);
      ASSERT_EQ(ref.rows(), out.rows());
      ASSERT_EQ(ref.cols(), out.cols());
      EXPECT_LE(ref.MaxAbsDiff(out), kTol) << "seed " << seed << " T " << t;
    }
  }
}

// ---------------------------------------------------------------------
// Batched inference: ForwardBatch over a ragged stacked slab must match
// B = 1 ForwardBatch calls on each window alone, row for row. Dense/TCN
// are row-local, so their batched path is the same arithmetic; the
// stacked LSTM's projection GEMM may reassociate sums across windows,
// so the contract there is the suite-wide 1e-9 — the same tolerance
// the tape/fast split carries.

std::vector<size_t> PrefixOffsets(const std::vector<size_t>& lens) {
  std::vector<size_t> offsets(1, 0);
  for (size_t len : lens) offsets.push_back(offsets.back() + len);
  return offsets;
}

/// B = 1 forward of one window through `frozen`, copied out of the arena.
template <class Frozen>
Matrix SingleWindowForward(const Frozen& frozen, InferenceContext* ctx,
                           const Matrix& x) {
  ctx->Reset();
  const size_t offsets[] = {0, x.rows()};
  return frozen.ForwardBatch(ctx, x, offsets);
}

Matrix StackWindows(const std::vector<Matrix>& windows) {
  size_t total = 0;
  for (const Matrix& w : windows) total += w.rows();
  const size_t cols = windows[0].cols();
  Matrix all(total, cols);
  size_t row = 0;
  for (const Matrix& w : windows) {
    std::copy_n(w.data(), w.rows() * cols, all.data() + row * cols);
    row += w.rows();
  }
  return all;
}

// Ragged on purpose: a length-1 window, a tail shorter than the batch
// max, and a repeat length — the shapes the lockstep recurrence has to
// retire early.
const std::vector<size_t> kRaggedLens = {7, 1, 64, 3, 7};

TEST(InferEquivalence, StackedBiLstmBatchMatchesSingle) {
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    StackedBiLstm stack("s", 4, 6, 2, &rng);
    const StackedBiLstmInfer frozen = Freeze(stack);

    std::vector<Matrix> windows;
    for (size_t t : kRaggedLens) {
      windows.push_back(Matrix::Randn(t, 4, 1.0, &rng));
    }
    std::vector<Matrix> refs;
    InferenceContext single;
    for (const Matrix& x : windows) {
      refs.push_back(SingleWindowForward(frozen, &single, x));
    }

    const Matrix x_all = StackWindows(windows);
    const std::vector<size_t> offsets = PrefixOffsets(kRaggedLens);
    InferenceContext ctx;
    ctx.Reset();
    const Matrix& out = frozen.ForwardBatch(&ctx, x_all, offsets);
    ASSERT_EQ(out.rows(), x_all.rows());
    for (size_t w = 0; w < kRaggedLens.size(); ++w) {
      const Matrix& ref = refs[w];
      ASSERT_EQ(ref.cols(), out.cols());
      for (size_t r = 0; r < ref.rows(); ++r) {
        for (size_t c = 0; c < ref.cols(); ++c) {
          EXPECT_NEAR(out(offsets[w] + r, c), ref(r, c), kTol)
              << "seed " << seed << " window " << w << " (" << r << ","
              << c << ")";
        }
      }
    }
  }
}

TEST(InferEquivalence, TcnBatchMatchesSingle) {
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    Tcn tcn("t", 3, 5, 2, 3, &rng);
    const TcnInfer frozen = Freeze(tcn);

    std::vector<Matrix> windows;
    for (size_t t : kRaggedLens) {
      windows.push_back(Matrix::Randn(t, 3, 1.0, &rng));
    }
    std::vector<Matrix> refs;
    InferenceContext single;
    for (const Matrix& x : windows) {
      refs.push_back(SingleWindowForward(frozen, &single, x));
    }

    const Matrix x_all = StackWindows(windows);
    const std::vector<size_t> offsets = PrefixOffsets(kRaggedLens);
    InferenceContext ctx;
    ctx.Reset();
    const Matrix& out = frozen.ForwardBatch(&ctx, x_all, offsets);
    ASSERT_EQ(out.rows(), x_all.rows());
    for (size_t w = 0; w < kRaggedLens.size(); ++w) {
      const Matrix& ref = refs[w];
      for (size_t r = 0; r < ref.rows(); ++r) {
        for (size_t c = 0; c < ref.cols(); ++c) {
          // Position-local loop fusion — expected bit-identical, asserted
          // at kTol so an FP-contraction build setting can't flake it.
          EXPECT_NEAR(out(offsets[w] + r, c), ref(r, c), kTol)
              << "seed " << seed << " window " << w << " (" << r << ","
              << c << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Filter-level mark equivalence: fast path vs tape path, random models ×
// sequence lengths × all three filter types.

class InferFilterEquivalence : public ::testing::Test {
 protected:
  InferFilterEquivalence()
      : stream_(SmallStream(600, 77)),
        pattern_(testing_util::AscendingSeqPattern(stream_.schema_ptr(), 2,
                                                   8)),
        featurizer_(pattern_, stream_) {}

  Matrix RandomFeatures(size_t t, Rng* rng) const {
    return Matrix::Randn(t, featurizer_.feature_dim(), 1.0, rng);
  }

  /// Asserts fast-path == tape-path marks for every (seed, T) cell and
  /// checks that reusing one InferenceContext across the whole sweep
  /// (shrinking and growing T) changes nothing.
  void CheckFilter(const TrainableFilter& filter, uint64_t data_seed) {
    InferenceContext shared;
    Rng rng(data_seed);
    for (size_t t : kSeqLens) {
      const Matrix features = RandomFeatures(t, &rng);
      const std::vector<int> tape_marks = filter.MarkFeaturesTape(features);
      const std::vector<int> fast_marks =
          filter.MarkFeatures(features, nullptr);
      const std::vector<int> reused_marks =
          filter.MarkFeatures(features, &shared);
      ASSERT_EQ(tape_marks.size(), t);
      EXPECT_EQ(tape_marks, fast_marks) << "T " << t;
      EXPECT_EQ(tape_marks, reused_marks) << "T " << t;
    }
    // Second pass over the same shapes through the already-warm arena:
    // buffer recycling must be idempotent.
    Rng rng2(data_seed);
    for (size_t t : kSeqLens) {
      const Matrix features = RandomFeatures(t, &rng2);
      EXPECT_EQ(filter.MarkFeaturesTape(features),
                filter.MarkFeatures(features, &shared))
          << "reused-arena pass, T " << t;
    }
  }

  /// Batched marks must equal B = 1 MarkWith marks exactly — for every
  /// grouping of the same window set (batch sizes 1, 2, 3, 8 over ten
  /// windows leave ragged tails of every flavor), all through ONE
  /// shared arena so buffer recycling across batch shapes is covered.
  void CheckFilterBatch(const StreamFilter& filter) {
    std::vector<WindowRange> windows;
    size_t begin = 0;
    for (size_t size : {16u, 1u, 64u, 7u, 16u, 3u, 33u, 16u, 9u, 5u}) {
      windows.push_back(WindowRange{begin, begin + size});
      begin += size / 2 + 1;  // overlapping, like the assembler's 2W/W
    }
    InferenceContext single;
    std::vector<std::vector<int>> expected(windows.size());
    for (size_t i = 0; i < windows.size(); ++i) {
      expected[i] = filter.MarkWith(stream_, windows[i], &single);
    }
    InferenceContext shared;
    for (size_t batch : {1u, 2u, 3u, 8u}) {
      std::vector<std::vector<int>> got(windows.size());
      for (size_t b = 0; b < windows.size(); b += batch) {
        const size_t count = std::min(batch, windows.size() - b);
        filter.MarkBatchWith(
            stream_,
            std::span<const WindowRange>(windows.data() + b, count),
            &shared, got.data() + b);
      }
      for (size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(expected[i], got[i])
            << "batch " << batch << " window " << i;
      }
    }
  }

  EventStream stream_;
  Pattern pattern_;
  Featurizer featurizer_;
};

TEST_F(InferFilterEquivalence, EventNetworkFilter) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    EventNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilter(filter, 1000 + seed);
  }
}

TEST_F(InferFilterEquivalence, TcnEventFilter) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    TcnEventFilter filter(&featurizer_, network, 0.5);
    CheckFilter(filter, 2000 + seed);
  }
}

TEST_F(InferFilterEquivalence, WindowNetworkFilter) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    WindowNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilter(filter, 3000 + seed);

    // The window probability itself — the pre-threshold activation —
    // must agree to 1e-9, not just the thresholded decision.
    Rng rng(4000 + seed);
    for (size_t t : kSeqLens) {
      const Matrix features = RandomFeatures(t, &rng);
      EXPECT_NEAR(filter.WindowProbability(features),
                  filter.WindowProbabilityTape(features), kTol)
          << "T " << t;
    }
  }
}

// ---------------------------------------------------------------------
// Batched marking: MarkBatchWith must reproduce B = 1 MarkWith marks
// exactly for every batch grouping, across all three filter types.

TEST_F(InferFilterEquivalence, EventNetworkFilterBatchMarks) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    EventNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilterBatch(filter);
  }
}

TEST_F(InferFilterEquivalence, TcnEventFilterBatchMarks) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    TcnEventFilter filter(&featurizer_, network, 0.5);
    CheckFilterBatch(filter);
  }
}

TEST_F(InferFilterEquivalence, WindowNetworkFilterBatchMarks) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    WindowNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilterBatch(filter);
  }
}

// MarkBatchOnline with per-window threshold boosts must match B = 1
// MarkOnline calls (the level-1 overload regime rides this path).
TEST_F(InferFilterEquivalence, EventNetworkFilterBatchOnlineBoosts) {
  NetworkConfig network;
  network.hidden_dim = 8;
  network.num_layers = 2;
  network.seed = 71;
  EventNetworkFilter filter(&featurizer_, network, 0.5);

  std::vector<OnlineWindow> windows;
  std::vector<std::shared_ptr<EventStream>> slices;
  size_t begin = 0;
  for (size_t size : {16u, 7u, 33u, 1u, 16u}) {
    auto slice = std::make_shared<EventStream>(stream_.Slice(begin, size));
    slices.push_back(slice);
    windows.push_back(
        OnlineWindow{slice.get(), 0, begin % 2 == 0 ? 0.0 : 0.2});
    begin += size / 2 + 1;
  }
  InferenceContext single;
  std::vector<std::vector<int>> expected(windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    expected[i] = filter.MarkOnline(*windows[i].events,
                                    windows[i].stream_begin, &single,
                                    windows[i].threshold_boost);
  }
  InferenceContext shared;
  std::vector<std::vector<int>> got(windows.size());
  filter.MarkBatchOnline(windows, &shared, got.data());
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(expected[i], got[i]) << "window " << i;
  }
}

// Regression: the TCN filter used to inherit a per-window MarkOnline
// that dropped threshold_boost, so level-1 (boosted) windows were
// counted as boosted but marked at the base threshold. A boosted
// window must mark exactly like a filter built with the raised
// threshold — and, on this fixture, differently from the unboosted one.
TEST_F(InferFilterEquivalence, TcnEventFilterHonorsThresholdBoost) {
  NetworkConfig network;
  network.hidden_dim = 8;
  network.num_layers = 2;
  network.seed = 73;
  const double base = 0.3;
  const double boost = 0.2;
  const TcnEventFilter filter(&featurizer_, network, base);
  const TcnEventFilter raised(&featurizer_, network, base + boost);

  std::vector<std::shared_ptr<EventStream>> slices;
  std::vector<OnlineWindow> boosted;
  std::vector<OnlineWindow> plain;
  size_t begin = 0;
  for (size_t size : {16u, 7u, 33u, 1u, 64u}) {
    slices.push_back(
        std::make_shared<EventStream>(stream_.Slice(begin, size)));
    boosted.push_back(OnlineWindow{slices.back().get(), begin, boost});
    plain.push_back(OnlineWindow{slices.back().get(), begin, 0.0});
    begin += size / 2 + 1;
  }
  InferenceContext ctx;
  std::vector<std::vector<int>> got(boosted.size());
  filter.MarkBatchOnline(boosted, &ctx, got.data());
  std::vector<std::vector<int>> unboosted(plain.size());
  filter.MarkBatchOnline(plain, &ctx, unboosted.data());

  bool any_differs = false;
  for (size_t i = 0; i < boosted.size(); ++i) {
    EXPECT_EQ(got[i], raised.MarkOnline(*plain[i].events,
                                        plain[i].stream_begin, &ctx, 0.0))
        << "window " << i;
    EXPECT_EQ(got[i], filter.MarkOnline(*boosted[i].events,
                                        boosted[i].stream_begin, &ctx, boost))
        << "window " << i;
    any_differs = any_differs || got[i] != unboosted[i];
  }
  EXPECT_TRUE(any_differs)
      << "boost " << boost << " changed no mark; the fixture cannot "
      << "tell a boosted window from an unboosted one";
}

// ---------------------------------------------------------------------
// One marking core per filter: for every in-tree filter, the five
// public entry points are adapters over it and must return
// byte-identical marks on the same windows.

TEST_F(InferFilterEquivalence, FiveEntryPointsAgreeForEveryFilter) {
  NetworkConfig network;
  network.hidden_dim = 8;
  network.num_layers = 2;
  network.seed = 81;
  const EventNetworkFilter event(&featurizer_, network, 0.5);
  const WindowNetworkFilter window(&featurizer_, network, 0.5);
  const TcnEventFilter tcn(&featurizer_, network, 0.5);
  const RandomSheddingFilter random_shed(0.4, 99);
  const TypeSheddingFilter type_shed(pattern_);
  const OracleFilter oracle(pattern_);
  const PassThroughFilter pass;
  serve::QueryRegistry registry;
  ASSERT_TRUE(registry.Register(pattern_).ok());
  const serve::ServeFilter serve_heads(&registry, &event, &event);
  const serve::ServeFilter serve_base(&registry, &random_shed);

  struct Case {
    const char* label;
    const StreamFilter* filter;
  };
  const Case cases[] = {
      {"event-network", &event},     {"window-network", &window},
      {"tcn", &tcn},                 {"random-shedding", &random_shed},
      {"type-shedding", &type_shed}, {"oracle", &oracle},
      {"pass-through", &pass},       {"serve+heads", &serve_heads},
      {"serve+base", &serve_base},
  };

  // SmallStream ids equal stream positions, so a detached window's head
  // arrival id is its range.begin.
  std::vector<WindowRange> ranges;
  std::vector<std::shared_ptr<EventStream>> slices;
  std::vector<OnlineWindow> online;
  size_t begin = 0;
  for (size_t size : {16u, 1u, 33u, 7u, 16u}) {
    ranges.push_back(WindowRange{begin, begin + size});
    slices.push_back(
        std::make_shared<EventStream>(stream_.Slice(begin, size)));
    online.push_back(OnlineWindow{slices.back().get(), begin, 0.0});
    begin += size / 2 + 1;
  }

  for (const Case& c : cases) {
    InferenceContext ctx;
    std::vector<std::vector<int>> batch_with(ranges.size());
    c.filter->MarkBatchWith(stream_, ranges, &ctx, batch_with.data());
    std::vector<std::vector<int>> batch_online(online.size());
    c.filter->MarkBatchOnline(online, &ctx, batch_online.data());
    for (size_t i = 0; i < ranges.size(); ++i) {
      const std::vector<int> mark = c.filter->Mark(stream_, ranges[i]);
      ASSERT_EQ(mark.size(), ranges[i].size()) << c.label;
      EXPECT_EQ(mark, c.filter->MarkWith(stream_, ranges[i], &ctx))
          << c.label << " MarkWith, window " << i;
      EXPECT_EQ(mark, batch_with[i])
          << c.label << " MarkBatchWith, window " << i;
      EXPECT_EQ(mark, c.filter->MarkOnline(*online[i].events,
                                           online[i].stream_begin, &ctx, 0.0))
          << c.label << " MarkOnline, window " << i;
      EXPECT_EQ(mark, batch_online[i])
          << c.label << " MarkBatchOnline, window " << i;
    }
  }

  // Random shedding's two salts: range.begin on the batch entry points,
  // the head arrival id on the online ones — never the caller's
  // stream_begin. A stream whose ids are offset from its positions
  // tells the two apart.
  const EventStream shifted = stream_.Slice(5, 200);  // ids 5.., pos 0..
  const WindowRange range{10, 26};
  EXPECT_EQ(random_shed.Mark(shifted, range),
            random_shed.MarkCount(range.size(), range.begin));
  std::vector<std::vector<int>> batch(1);
  random_shed.MarkBatchWith(shifted, {&range, 1}, nullptr, batch.data());
  EXPECT_EQ(batch[0], random_shed.MarkCount(range.size(), range.begin));
  const EventStream detached = shifted.Slice(range.begin, range.size());
  ASSERT_EQ(detached[0].id, 15u);
  const std::vector<int> by_id = random_shed.MarkCount(range.size(), 15);
  EXPECT_NE(by_id, random_shed.MarkCount(range.size(), range.begin));
  EXPECT_EQ(random_shed.MarkOnline(detached, range.begin, nullptr, 0.0),
            by_id);
  const OnlineWindow w{&detached, 1000, 0.0};
  random_shed.MarkBatchOnline({&w, 1}, nullptr, batch.data());
  EXPECT_EQ(batch[0], by_id);
}

// ---------------------------------------------------------------------
// End-to-end Mark: the stream-facing entry point (featurize + fast
// path) must be invariant to which context — none, fresh, or reused —
// serves the call.

TEST_F(InferFilterEquivalence, MarkIsInvariantToContextReuse) {
  NetworkConfig network;
  network.hidden_dim = 8;
  network.num_layers = 2;
  network.seed = 61;
  EventNetworkFilter filter(&featurizer_, network, 0.5);

  InferenceContext reused;
  for (size_t begin : {0u, 100u, 200u}) {
    for (size_t size : {1u, 7u, 64u}) {
      const WindowRange range{begin, begin + size};
      const std::vector<int> plain = filter.Mark(stream_, range);
      InferenceContext fresh;
      EXPECT_EQ(plain, filter.MarkWith(stream_, range, &fresh));
      EXPECT_EQ(plain, filter.MarkWith(stream_, range, &reused));
    }
  }
}

}  // namespace
}  // namespace dlacep
