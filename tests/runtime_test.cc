// Online streaming runtime tests: byte-equality between OnlineDlacep
// and the sequential reference evaluator (test_util.h ReferenceEvaluate)
// at every shard count and micro-batch size, bounded-queue accounting under overload (no
// deadlock, every ingested event is either relayed, filtered, or
// dropped), overload controller escalation AND recovery, drift
// flagging, source fidelity, and RingQueue unit behavior. The whole
// file must also pass under TSan (see the CI sanitizer job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "dlacep/shedding_filter.h"
#include "pattern/builder.h"
#include "runtime/online.h"
#include "runtime/ring_queue.h"
#include "runtime/source.h"
#include "stream/stocksim.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;
using testing_util::StockSeqPattern;
using testing_util::ZipfStockStream;

void ExpectSameMatches(const MatchSet& a, const MatchSet& b) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.IntersectionSize(b), a.size());
}

// ---------------------------------------------------------------------
// RingQueue.

TEST(RingQueue, FifoOrderAndHighWater) {
  RingQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.high_water(), 3u);
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.TryPush(4));
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 4);
  EXPECT_EQ(queue.high_water(), 3u);  // depth never exceeded 3
}

TEST(RingQueue, TryPushFailsWhenFull) {
  RingQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.TryPush(3));
}

TEST(RingQueue, CloseDrainsRemainingThenStops) {
  RingQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(7));
  EXPECT_TRUE(queue.TryPush(8));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(9));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(RingQueue, BlockingPushDeliversEverythingThroughTinyQueue) {
  RingQueue<int> queue(2);
  constexpr int kCount = 500;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) ASSERT_TRUE(queue.Push(i));
    queue.Close();
  });
  int expected = 0;
  int out = -1;
  while (queue.Pop(&out)) {
    EXPECT_EQ(out, expected++);
  }
  EXPECT_EQ(expected, kCount);
  producer.join();
}

TEST(RingQueue, CloseUnblocksPendingPush) {
  RingQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result = queue.Push(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());
}

// ---------------------------------------------------------------------
// LatencyHistogram.

// The linear scan Record() historically ran per sample — the definition
// of bucket placement. The O(1) BucketFor must agree with it
// everywhere, most importantly exactly on bucket bounds, where the
// bit-width guess needs its adjust loops (1µs·2^i is not exactly
// representable in binary floating point).
size_t LinearScanBucket(double seconds) {
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (seconds <= LatencyHistogram::BucketBound(i)) return i;
  }
  return LatencyHistogram::kBuckets - 1;
}

TEST(LatencyHistogram, BucketForMatchesLinearScanEverywhere) {
  EXPECT_EQ(LatencyHistogram::BucketFor(0.0), LinearScanBucket(0.0));
  EXPECT_EQ(LatencyHistogram::BucketFor(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1e9),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketFor(1e300),
            LatencyHistogram::kBuckets - 1);
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const double bound = LatencyHistogram::BucketBound(i);
    const double probes[] = {bound,
                             std::nextafter(bound, 0.0),
                             std::nextafter(bound, 1e18),
                             bound * 0.75,
                             bound * 1.5};
    for (double s : probes) {
      EXPECT_EQ(LatencyHistogram::BucketFor(s), LinearScanBucket(s))
          << "bucket " << i << " s=" << s;
    }
  }
}

TEST(LatencyHistogram, PercentileUsesCeilNearestRank) {
  LatencyHistogram h;
  h.Record(1.5e-6);  // one fast sample
  for (int i = 0; i < 99; ++i) h.Record(0.9);  // 99 slow ones
  const double fast =
      LatencyHistogram::BucketBound(LatencyHistogram::BucketFor(1.5e-6));
  const double slow =
      LatencyHistogram::BucketBound(LatencyHistogram::BucketFor(0.9));
  // Nearest rank of p=1% over 100 samples is ceil(1) = 1 — the single
  // fast sample. The old round-half-up arithmetic produced rank 0 and
  // walked off the front of the histogram.
  EXPECT_EQ(h.Percentile(1.0), fast);
  EXPECT_EQ(h.Percentile(0.0), fast);    // clamped to rank 1
  EXPECT_EQ(h.Percentile(1.001), slow);  // ceil rounds up to rank 2
  EXPECT_EQ(h.Percentile(50.0), slow);
  EXPECT_EQ(h.Percentile(100.0), slow);
  EXPECT_EQ(h.Percentile(200.0), slow);  // out-of-range p clamps
}

TEST(LatencyHistogram, PercentileSkipsEmptyBuckets) {
  LatencyHistogram h;
  h.Record(1e-6);  // bucket 0
  h.Record(1.0);   // a high bucket; everything in between stays empty
  const double fast = LatencyHistogram::BucketBound(0);
  const double slow =
      LatencyHistogram::BucketBound(LatencyHistogram::BucketFor(1.0));
  EXPECT_EQ(h.Percentile(50.0), fast);  // rank 1 of 2
  EXPECT_EQ(h.Percentile(51.0), slow);  // rank 2 of 2
  // Every answer must be a non-empty bucket's bound — never one of the
  // empty buckets between the two samples.
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_TRUE(v == fast || v == slow) << "p=" << p << " -> " << v;
  }
}

TEST(LatencyHistogram, PercentileOfEmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.Percentile(100.0), 0.0);
}

// ---------------------------------------------------------------------
// Byte-equality with the sequential reference evaluator, at every shard
// count.

struct EqualityCase {
  const EventStream* stream;
  const Pattern* pattern;
  const StreamFilter* filter;
  size_t mark_size = 0;
  size_t step_size = 0;
  size_t batch_size = 1;
};

// Runs the online runtime at 1, 2, 4, and 8 shards and checks marks,
// relayed-event counts, matches, accounting, and per-shard stats
// aggregation against the sequential reference result.
void CheckOnlineMatchesBatch(const EqualityCase& c,
                             const PipelineResult& batch) {
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                      << " batch_size=" << c.batch_size);
    OnlineConfig config;
    config.num_shards = shards;
    config.queue_capacity = 64;
    config.mark_size = c.mark_size;
    config.step_size = c.step_size;
    config.batch_size = c.batch_size;
    config.overload.enabled = false;  // lossless backpressure only
    OnlineDlacep online(*c.pattern, c.filter, config);
    ReplaySource source(c.stream);
    const OnlineResult result = online.Run(&source);

    EXPECT_EQ(result.marked_ids, batch.marked_ids);
    EXPECT_EQ(result.marked_events, batch.marked_events);
    ExpectSameMatches(result.matches, batch.matches);

    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
    EXPECT_EQ(result.stats.events_ingested, c.stream->size());
    EXPECT_EQ(result.stats.events_dropped_queue, 0u);
    EXPECT_EQ(result.stats.overload_escalations, 0u);
    EXPECT_EQ(result.stats.overload_level_at_exit, 0);

    // Per-shard accounting must aggregate to the global counters: every
    // closed window routed to exactly one shard and marked exactly once.
    ASSERT_EQ(result.stats.shards.size(), shards);
    uint64_t routed = 0;
    uint64_t marked = 0;
    for (const ShardStats& s : result.stats.shards) {
      routed += s.windows_routed;
      marked += s.windows_marked;
      EXPECT_LE(s.windows_marked, s.windows_routed);
    }
    EXPECT_EQ(routed, result.stats.windows_closed);
    EXPECT_EQ(marked, result.stats.windows_closed);
  }
}

PipelineResult BatchReference(const EqualityCase& c) {
  return testing_util::ReferenceEvaluate(*c.pattern, *c.filter, *c.stream,
                                         c.mark_size, c.step_size);
}

TEST(OnlineEquality, PassThroughFilter) {
  const EventStream stream = SmallStream(600, 11);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(OnlineEquality, TypeSheddingFilter) {
  const EventStream stream = SmallStream(800, 23, /*num_types=*/6);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 10);
  TypeSheddingFilter filter(pattern);
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(OnlineEquality, RandomSheddingFilterKeepsWindowSalt) {
  const EventStream stream = SmallStream(700, 37);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  RandomSheddingFilter filter(0.4, 99);
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(OnlineEquality, OracleFilter) {
  const EventStream stream = SmallStream(400, 51);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  OracleFilter filter(pattern);
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(OnlineEquality, TrainedEventNetworkFilter) {
  const EventStream train = SmallStream(900, 61);
  const EventStream test = SmallStream(500, 62);
  const Pattern pattern = AscendingSeqPattern(train.schema_ptr(), 2, 8);

  DlacepConfig config;
  config.network.hidden_dim = 6;
  config.network.num_layers = 1;
  config.train.max_epochs = 2;
  BuiltDlacep built =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
  // The pipeline owns the trained filter; borrow it for the online run.
  EqualityCase c{&test, &pattern, &built.pipeline->filter()};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(OnlineEquality, NonDefaultAssemblerGeometry) {
  const EventStream stream = SmallStream(300, 71);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 7);
  PassThroughFilter filter;
  // mark not a multiple of step, truncated tail windows.
  EqualityCase c{&stream, &pattern, &filter, /*mark_size=*/11,
                 /*step_size=*/4};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(OnlineEquality, StreamShorterThanOneWindow) {
  const EventStream full = SmallStream(200, 81);
  const EventStream stream = full.Slice(0, 5);  // N << mark_size
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 30);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(OnlineEquality, EmptyStream) {
  const EventStream full = SmallStream(10, 91);
  const EventStream stream = full.Slice(0, 0);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;
  OnlineConfig config;
  config.overload.enabled = false;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  const OnlineResult result = online.Run(&source);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_TRUE(result.marked_ids.empty());
  EXPECT_EQ(result.stats.windows_closed, 0u);
  EXPECT_TRUE(result.stats.Accounted());
}

// ---------------------------------------------------------------------
// Stock-stream cases: a two-symbol pattern over a Zipf-skewed stock
// stream, so type-shedding has irrelevant traffic to drop and hot
// symbols cluster in runs of windows.

/// Content-based filter: relay events whose volume clears a gate. Pure
/// function of the event payload, so any routing must reproduce it.
class VolGateFilter : public StreamFilter {
 public:
  explicit VolGateFilter(double gate) : gate_(gate) {}

  std::string name() const override { return "vol-gate"; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext*,
                   std::vector<int>* marks) const override {
    for (size_t w = 0; w < windows.size(); ++w) {
      const std::span<const Event> events = windows[w].events;
      marks[w].assign(events.size(), 0);
      for (size_t t = 0; t < events.size(); ++t) {
        const Event& e = events[t];
        if (!e.is_blank() && !e.attrs.empty() && e.attrs[0] > gate_) {
          marks[w][t] = 1;
        }
      }
    }
  }

 private:
  double gate_;
};

TEST(ShardedEquality, PassThroughOnZipfStream) {
  const EventStream stream = ZipfStockStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(ShardedEquality, TypeSheddingOnZipfStream) {
  const EventStream stream = ZipfStockStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  TypeSheddingFilter filter(pattern);
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(ShardedEquality, RandomSheddingOnZipfStream) {
  const EventStream stream = ZipfStockStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  RandomSheddingFilter filter(0.5, 0x5eed);
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(ShardedEquality, ContentFilterOnZipfStream) {
  const EventStream stream = ZipfStockStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  VolGateFilter filter(20.0);
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(ShardedEquality, ShardLocalMicroBatchingPreservesOutput) {
  // batch_size > 1 groups adjacent batchable tasks of one shard burst
  // into a single filter call — output must not notice.
  const EventStream stream = ZipfStockStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  VolGateFilter filter(20.0);
  EqualityCase c{&stream, &pattern, &filter};
  c.batch_size = 4;
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

TEST(ShardedEquality, NonDefaultGeometryAndSmallStream) {
  const EventStream stream = SmallStream(900, 19);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter, /*mark_size=*/30,
                 /*step_size=*/10};
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

// ---------------------------------------------------------------------
// Micro-batched filtration (batch_size > 1): shard-side batching may
// only change how many windows one filter call marks, never a window's
// marks or its merge position, so every (shards × batch_size) cell must
// stay byte-identical to the sequential per-window reference.

void CheckOnlineBatchedMatchesBatch(EqualityCase c,
                                    const PipelineResult& batch) {
  for (size_t batch_size : {2u, 4u, 7u}) {
    c.batch_size = batch_size;
    CheckOnlineMatchesBatch(c, batch);
  }
}

TEST(OnlineBatching, PassThroughFilterMatchesBatchPipeline) {
  const EventStream stream = SmallStream(600, 11);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckOnlineBatchedMatchesBatch(c, BatchReference(c));
}

TEST(OnlineBatching, TrainedEventNetworkFilterMatchesBatchPipeline) {
  const EventStream train = SmallStream(900, 61);
  const EventStream test = SmallStream(500, 62);
  const Pattern pattern = AscendingSeqPattern(train.schema_ptr(), 2, 8);

  DlacepConfig config;
  config.network.hidden_dim = 6;
  config.network.num_layers = 1;
  config.train.max_epochs = 2;
  BuiltDlacep built =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
  EqualityCase c{&test, &pattern, &built.pipeline->filter()};
  CheckOnlineBatchedMatchesBatch(c, BatchReference(c));
}

TEST(OnlineBatching, PartialBatchFlushesAtEndOfStream) {
  // batch_size larger than the whole window count: a shard marks
  // whatever its burst holds, so the run must still terminate and match
  // byte for byte.
  const EventStream stream = SmallStream(300, 71);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 7);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter, /*mark_size=*/11,
                 /*step_size=*/4};
  c.batch_size = 1000;
  CheckOnlineMatchesBatch(c, BatchReference(c));
}

// ---------------------------------------------------------------------
// Sources.

TEST(StockSimSource, ByteIdenticalToBatchGeneration) {
  StockSimConfig config;
  config.num_events = 500;
  config.num_symbols = 8;
  config.seed = 13;
  const EventStream batch = GenerateStockStream(config);

  StockSimSource source(config);
  Event event;
  size_t i = 0;
  while (source.Next(&event)) {
    ASSERT_LT(i, batch.size());
    EXPECT_EQ(event.type, batch[i].type);
    EXPECT_EQ(event.timestamp, batch[i].timestamp);
    ASSERT_EQ(event.attrs.size(), batch[i].attrs.size());
    for (size_t a = 0; a < event.attrs.size(); ++a) {
      EXPECT_EQ(event.attrs[a], batch[i].attrs[a]);
    }
    ++i;
  }
  EXPECT_EQ(i, batch.size());
}

// ---------------------------------------------------------------------
// Overload control and accounting above capacity.

/// Pass-through whose first `slow_calls` markings sleep, creating a
/// deterministic overload phase followed by guaranteed relief.
class SlowThenFastFilter : public StreamFilter {
 public:
  SlowThenFastFilter(int slow_calls, std::chrono::milliseconds delay)
      : remaining_(slow_calls), delay_(delay) {}

  std::string name() const override { return "slow-then-fast"; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext*,
                   std::vector<int>* marks) const override {
    for (size_t w = 0; w < windows.size(); ++w) {
      if (remaining_.fetch_sub(1) > 0) std::this_thread::sleep_for(delay_);
      marks[w].assign(windows[w].events.size(), 1);
    }
  }

 private:
  mutable std::atomic<int> remaining_;
  std::chrono::milliseconds delay_;
};

/// Replays a burst of events as fast as possible (far above capacity),
/// then paces the remaining tail at a rate the consumer can keep up
/// with — so an overloaded phase is followed by guaranteed relief.
class BurstThenPacedSource : public StreamSource {
 public:
  BurstThenPacedSource(const EventStream* stream, size_t burst,
                       double tail_rate)
      : stream_(stream), burst_(burst), pacer_(tail_rate) {}

  std::shared_ptr<const Schema> schema() const override {
    return stream_->schema_ptr();
  }

  Status Read(Event* out) override {
    if (next_ >= stream_->size()) {
      return Status::OutOfRange("end of stream");
    }
    if (next_ >= burst_) pacer_.Tick();
    *out = (*stream_)[next_++];
    return Status::Ok();
  }

 private:
  const EventStream* stream_;
  size_t burst_;
  size_t next_ = 0;
  Pacer pacer_;
};

TEST(OnlineOverload, EscalatesRecoversAndAccountsEveryEvent) {
  const EventStream stream = SmallStream(3500, 17);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  // While the primary filter is slow, window closes are gated on merges
  // and the queue stays full at every close (pressure); once the slow
  // calls are spent, the consumer outpaces the paced tail and the queue
  // is empty at every close (relief).
  SlowThenFastFilter filter(/*slow_calls=*/6,
                            std::chrono::milliseconds(60));

  OnlineConfig config;
  config.queue_capacity = 8;
  config.drop_when_full = true;  // above capacity: count drops
  config.num_shards = 2;
  config.max_windows_in_flight = 2;
  config.overload.enabled = true;
  config.overload.high_watermark = 0.5;
  config.overload.low_watermark = 0.25;
  config.overload.dwell_windows = 1;
  config.overload.shedding = SheddingPolicy::kType;
  OnlineDlacep online(pattern, &filter, config);

  BurstThenPacedSource source(&stream, /*burst=*/2000,
                              /*tail_rate=*/4000.0);
  const OnlineResult result = online.Run(&source);
  const RuntimeStats& stats = result.stats;

  // No deadlock (we got here) and exact accounting despite drops.
  EXPECT_EQ(stats.events_ingested, stream.size());
  EXPECT_GT(stats.events_dropped_queue, 0u);
  EXPECT_TRUE(stats.Accounted()) << stats.ToString();
  EXPECT_EQ(stats.events_appended + stats.events_dropped_queue,
            stats.events_ingested);

  // The controller went INTO degraded mode and came back OUT.
  EXPECT_GE(stats.overload_escalations, 1u);
  EXPECT_GE(stats.overload_recoveries, 1u);
  EXPECT_EQ(stats.overload_level_at_exit, 0);
  ASSERT_FALSE(stats.transitions.empty());
  for (const OverloadTransition& t : stats.transitions) {
    EXPECT_EQ(std::abs(t.to - t.from), 1);  // one level at a time
    EXPECT_GE(t.to, 0);
    EXPECT_LE(t.to, OverloadController::kMaxLevel);
  }

  EXPECT_GT(stats.windows_closed, 0u);
  EXPECT_EQ(stats.window_latency.count(), stats.windows_closed);
}

TEST(OverloadController, HysteresisEscalatesAndRecoversOneLevelAtATime) {
  OverloadConfig config;
  config.high_watermark = 0.8;
  config.low_watermark = 0.25;
  config.dwell_windows = 3;
  OverloadController controller(config);

  // Pressure must persist for dwell_windows closes before a transition.
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 0);  // run broken, re-arm
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 1);  // 3rd consecutive
  // One level at a time: the next dwell run reaches level 2.
  EXPECT_EQ(controller.Observe(0.9, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 2);
  // Saturates at kMaxLevel.
  EXPECT_EQ(controller.Observe(1.0, 0.0), 2);
  EXPECT_EQ(controller.Observe(1.0, 0.0), 2);
  EXPECT_EQ(controller.Observe(1.0, 0.0), 2);
  // Mid-band (between watermarks) neither escalates nor recovers.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(controller.Observe(0.5, 0.0), 2);
  // Relief below the low watermark recovers, again one level per dwell.
  EXPECT_EQ(controller.Observe(0.1, 0.0), 2);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 2);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 0);

  EXPECT_EQ(controller.escalations(), 2u);
  EXPECT_EQ(controller.recoveries(), 2u);
  ASSERT_EQ(controller.transitions().size(), 4u);
  EXPECT_EQ(controller.transitions()[0].to, 1);
  EXPECT_EQ(controller.transitions()[1].to, 2);
  EXPECT_EQ(controller.transitions()[2].to, 1);
  EXPECT_EQ(controller.transitions()[3].to, 0);
}

TEST(OverloadController, LatencySignalTriggersWithoutQueuePressure) {
  OverloadConfig config;
  config.latency_high_seconds = 0.5;
  config.dwell_windows = 2;
  OverloadController controller(config);
  EXPECT_EQ(controller.Observe(0.0, 1.0), 0);
  EXPECT_EQ(controller.Observe(0.0, 1.0), 1);
  // Recovery needs BOTH an empty-ish queue and latency well below the
  // trip point.
  EXPECT_EQ(controller.Observe(0.0, 0.6), 1);
  EXPECT_EQ(controller.Observe(0.0, 0.1), 1);
  EXPECT_EQ(controller.Observe(0.0, 0.1), 0);
}

// ---------------------------------------------------------------------
// Latency-EWMA warm-up: one slow first window must not escalate.

/// Sleeps while marking windows with seq < slow_before — a warm-up
/// outlier (seq 0 only) or sustained slowness (several windows).
class SlowSeqFilter : public StreamFilter {
 public:
  SlowSeqFilter(std::atomic<uint64_t>* seq_counter, uint64_t slow_before,
                std::chrono::milliseconds delay)
      : seq_(seq_counter), slow_before_(slow_before), delay_(delay) {}

  std::string name() const override { return "slow-seq"; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext*,
                   std::vector<int>* marks) const override {
    for (size_t w = 0; w < windows.size(); ++w) {
      if (seq_->fetch_add(1) < slow_before_) {
        std::this_thread::sleep_for(delay_);
      }
      marks[w].assign(windows[w].events.size(), 1);
    }
  }

 private:
  std::atomic<uint64_t>* seq_;
  uint64_t slow_before_;
  std::chrono::milliseconds delay_;
};

// Latency-signal-only config: the queue can never signal pressure
// (high_watermark above any possible fill fraction), so escalations in
// these tests come from the window-latency EWMA alone.
OnlineConfig LatencySignalOnlyConfig() {
  OnlineConfig config;
  // One shard, one window in flight: close → mark → merge is strictly
  // serial, so window latencies are exactly the per-window mark costs.
  config.num_shards = 1;
  config.max_windows_in_flight = 1;
  config.overload.enabled = true;
  config.overload.high_watermark = 2.0;
  config.overload.latency_high_seconds = 0.05;
  config.overload.dwell_windows = 1;
  return config;
}

TEST(OnlineOverload, SingleSlowWarmupWindowDoesNotEscalate) {
  const EventStream stream = SmallStream(600, 67);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  // Only window 0 is slow (250ms >> the 50ms trip point): the classic
  // cold-cache warm-up outlier. Before the warm-up discard the EWMA
  // seeded from this first observation and, with dwell_windows=1, fired
  // a spurious escalation a healthy steady state then had to undo.
  std::atomic<uint64_t> seq{0};
  SlowSeqFilter filter(&seq, /*slow_before=*/1,
                       std::chrono::milliseconds(250));
  OnlineConfig config = LatencySignalOnlyConfig();
  ASSERT_EQ(config.overload.latency_warmup_windows, 1u);  // the default
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  const OnlineResult result = online.Run(&source);

  EXPECT_EQ(result.stats.overload_escalations, 0u)
      << "a single warm-up outlier seeded the latency EWMA";
  EXPECT_EQ(result.stats.overload_level_at_exit, 0);
  EXPECT_TRUE(result.stats.transitions.empty());
  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
}

TEST(OnlineOverload, SustainedSlownessStillEscalatesPastWarmup) {
  const EventStream stream = SmallStream(600, 71);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  // Six consecutive slow windows: the warm-up discard skips only the
  // first, so the EWMA seeds from window 1 and the latency signal must
  // still fire — the fix ignores one outlier, not the signal.
  std::atomic<uint64_t> seq{0};
  SlowSeqFilter filter(&seq, /*slow_before=*/6,
                       std::chrono::milliseconds(100));
  OnlineDlacep online(pattern, &filter, LatencySignalOnlyConfig());
  ReplaySource source(&stream);
  const OnlineResult result = online.Run(&source);

  EXPECT_GE(result.stats.overload_escalations, 1u);
  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
}

TEST(OnlineOverload, DisabledControllerStaysLossyButLevelZero) {
  const EventStream stream = SmallStream(2000, 19);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  SlowThenFastFilter filter(/*slow_calls=*/3,
                            std::chrono::milliseconds(40));

  OnlineConfig config;
  config.queue_capacity = 8;
  config.drop_when_full = true;
  config.num_shards = 1;
  config.max_windows_in_flight = 1;
  config.overload.enabled = false;
  OnlineDlacep online(pattern, &filter, config);

  ReplaySource source(&stream);
  const OnlineResult result = online.Run(&source);
  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  EXPECT_GT(result.stats.events_dropped_queue, 0u);
  EXPECT_EQ(result.stats.overload_escalations, 0u);
  EXPECT_EQ(result.stats.windows_shed, 0u);
  EXPECT_EQ(result.stats.windows_boosted, 0u);
}

// ---------------------------------------------------------------------
// Drift monitoring inside the runtime loop.

TEST(OnlineDrift, FlagsWhenLiveRateLeavesReferenceBand) {
  const EventStream stream = SmallStream(800, 29);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;  // live marking rate is exactly 1.0

  OnlineConfig config;
  config.overload.enabled = false;
  config.drift.enabled = true;
  config.drift.reference_rate = 0.0;  // trained reference: nothing marked
  config.drift.tolerance = 0.1;
  config.drift.window_budget = 4;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  EXPECT_GE(online.Run(&source).stats.drift_flags, 1u);
}

TEST(OnlineDrift, QuietWhenRateMatchesReference) {
  const EventStream stream = SmallStream(800, 31);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;

  OnlineConfig config;
  config.overload.enabled = false;
  config.drift.enabled = true;
  config.drift.reference_rate = 1.0;  // matches pass-through exactly
  config.drift.tolerance = 0.1;
  config.drift.window_budget = 4;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  EXPECT_EQ(online.Run(&source).stats.drift_flags, 0u);
}

}  // namespace
}  // namespace dlacep
