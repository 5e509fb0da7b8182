// Tests for the extension modules: load-shedding baseline filters,
// concept-drift monitoring + adaptive retraining, and multi-pattern
// monitoring with a shared filter.

#include <gtest/gtest.h>

#include "cep/oracle.h"
#include "dlacep/assembler.h"
#include "dlacep/drift.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/padding.h"
#include "dlacep/pipeline.h"
#include "dlacep/shedding_filter.h"
#include "pattern/builder.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::SmallStream;

Pattern TypeOnlySeq(std::shared_ptr<const Schema> schema, size_t window) {
  PatternBuilder builder(std::move(schema));
  auto root = builder.Seq(builder.Prim("A", "a"), builder.Prim("B", "b"),
                          builder.Prim("C", "c"));
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

// ---------------------------------------------------------------------
// Shedding filters.

TEST(SheddingFilters, RandomSheddingKeepsRequestedFraction) {
  const EventStream stream = SmallStream(1000, 61);
  RandomSheddingFilter filter(0.3, 7);
  size_t kept = 0;
  for (const WindowRange& range : CountWindows(stream.size(), 50, 50)) {
    for (int m : filter.Mark(stream, range)) kept += m;
  }
  EXPECT_NEAR(static_cast<double>(kept) / 1000.0, 0.3, 0.06);
}

TEST(SheddingFilters, TypeSheddingKeepsExactlyRelevantTypes) {
  const EventStream stream = SmallStream(300, 62, /*num_types=*/6);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  TypeSheddingFilter filter(pattern);
  const WindowRange range{0, 300};
  const std::vector<int> marks = filter.Mark(stream, range);
  for (size_t t = 0; t < 300; ++t) {
    const bool relevant = stream[t].type <= 2;  // A, B, C
    EXPECT_EQ(marks[t], relevant ? 1 : 0) << "at " << t;
  }
}

TEST(SheddingFilters, TypeSheddingLosesNoMatches) {
  const EventStream stream = SmallStream(400, 63, /*num_types=*/6);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  DlacepConfig config;
  DlacepPipeline pipeline(
      pattern, std::make_unique<TypeSheddingFilter>(pattern), config);
  const PipelineResult result = pipeline.Evaluate(stream);
  const MatchSet exact = EnumerateAllMatches(
      pattern, {stream.events().data(), stream.size()});
  EXPECT_EQ(result.matches.size(), exact.size());
  EXPECT_GT(result.filtering_ratio(), 0.3);  // 3 of 6 types dropped
}

TEST(SheddingFilters, RandomSheddingLosesMatchesAtEqualRatio) {
  // The headline claim behind learned filtration: at a comparable
  // filtering ratio, content-blind shedding loses many matches.
  const EventStream stream = SmallStream(400, 64);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  DlacepConfig config;
  DlacepPipeline pipeline(
      pattern, std::make_unique<RandomSheddingFilter>(0.5, 9), config);
  const PipelineResult result = pipeline.Evaluate(stream);
  const MatchSet exact = EnumerateAllMatches(
      pattern, {stream.events().data(), stream.size()});
  ASSERT_GT(exact.size(), 10u);
  const MatchSetMetrics quality = CompareMatchSets(exact, result.matches);
  EXPECT_LT(quality.recall, 0.6);   // heavy loss
  EXPECT_EQ(quality.precision, 1.0);  // still no false positives
}

// ---------------------------------------------------------------------
// Drift monitoring.

TEST(DriftMonitor, FiresOnlyOutsideToleranceAfterWarmup) {
  DriftMonitor monitor(/*reference_rate=*/0.5, /*tolerance=*/0.2,
                       /*window_budget=*/3);
  const std::vector<int> half = {1, 0, 1, 0};
  EXPECT_FALSE(monitor.Observe(half));  // warm-up
  EXPECT_FALSE(monitor.Observe(half));
  EXPECT_FALSE(monitor.Observe(half));  // rate 0.5 — in band
  const std::vector<int> none = {0, 0, 0, 0};
  EXPECT_FALSE(monitor.Observe(none));  // rate 0.33 — still in band
  EXPECT_TRUE(monitor.Observe(none));   // rate 0.17 — drift
  monitor.ResetReference();
  EXPECT_FALSE(monitor.Observe(none));  // re-anchored
}

TEST(DriftMonitor, ObservedRateTracksSlidingBudget) {
  DriftMonitor monitor(0.0, 1.0, 2);
  monitor.Observe({1, 1});
  monitor.Observe({0, 0});
  EXPECT_DOUBLE_EQ(monitor.observed_rate(), 0.5);
  monitor.Observe({0, 0});  // {1,1} slides out
  EXPECT_DOUBLE_EQ(monitor.observed_rate(), 0.0);
}

TEST(AdaptiveRetraining, RetrainsOnInjectedDriftAndKeepsExtracting) {
  // Train on a stream where the pattern types are common, then evaluate
  // on a stream whose type distribution shifted (types remapped), which
  // starves the filter and trips the marking-rate monitor.
  const EventStream train = SmallStream(1500, 65);
  const Pattern pattern = TypeOnlySeq(train.schema_ptr(), 8);

  DlacepConfig config;
  config.network.hidden_dim = 8;
  config.network.num_layers = 1;
  config.train.max_epochs = 8;

  const Featurizer featurizer(pattern, train);
  EventNetworkFilter filter(&featurizer, config.network,
                            config.event_threshold);
  const InputAssembler assembler = InputAssembler::ForWindow(8);
  const FilterDataset dataset =
      BuildFilterDataset(pattern, train, assembler, featurizer, 0.9, 17);
  filter.Fit(dataset.train_event, config.train);

  // Drifted stream: far fewer A/B/C events (types shifted up by 2).
  SyntheticConfig drifted_config;
  drifted_config.num_events = 1200;
  drifted_config.num_types = 5;
  drifted_config.seed = 66;
  EventStream drifted = GenerateSynthetic(drifted_config);

  DriftMonitor monitor(/*reference_rate=*/0.9, /*tolerance=*/0.15,
                       /*window_budget=*/5);
  const AdaptiveResult result = EvaluateWithRetraining(
      pattern, &filter, featurizer, drifted, &monitor,
      /*retrain_events=*/400, config);
  // The monitor must have fired at least once and triggered fine-tuning.
  EXPECT_GE(result.drifts_detected, 1u);
  EXPECT_GE(result.retrainings, 1u);
  // Output must still be a subset of the exact matches (NEG-free).
  const MatchSet exact = EnumerateAllMatches(
      pattern, {drifted.events().data(), drifted.size()});
  for (const Match& m : result.matches) {
    EXPECT_TRUE(exact.Contains(m));
  }
}

// ---------------------------------------------------------------------
// Padding (time-based window simulation).

TEST(Padding, RandomWindowsProduceFixedSizeChunks) {
  const EventStream source = SmallStream(100, 71);
  const EventStream padded = PadRandomWindows(source, 8, 3);
  EXPECT_EQ(padded.size() % 8, 0u);
  // Every real event survives, in order.
  std::vector<TypeId> original;
  for (const Event& e : source) original.push_back(e.type);
  std::vector<TypeId> kept;
  for (const Event& e : padded) {
    if (!e.is_blank()) kept.push_back(e.type);
  }
  EXPECT_EQ(kept, original);
  EXPECT_GT(PaddingRatio(padded), 0.0);
  EXPECT_LT(PaddingRatio(padded), 0.6);
}

TEST(Padding, TimeWindowsRespectTheSpan) {
  auto schema = MakeSyntheticSchema(2, 1);
  EventStream source(schema);
  for (double ts : {0.0, 1.0, 2.0, 10.0, 11.0, 30.0}) {
    source.Append(0, ts, {0.0});
  }
  const EventStream padded = PadTimeWindows(source, 2.5, 4);
  // Three windows: {0,1,2}, {10,11}, {30} — each padded to 4.
  EXPECT_EQ(padded.size(), 12u);
  // Window boundaries: positions 3, 6-7, 9-11 are blanks.
  EXPECT_TRUE(padded[3].is_blank());
  EXPECT_FALSE(padded[4].is_blank());
  EXPECT_TRUE(padded[6].is_blank());
  EXPECT_TRUE(padded[7].is_blank());
  EXPECT_FALSE(padded[8].is_blank());
  EXPECT_TRUE(padded[11].is_blank());
}

TEST(Padding, EmptyStreamStaysEmpty) {
  auto schema = MakeSyntheticSchema(2, 1);
  const EventStream empty(schema);
  EXPECT_EQ(PadRandomWindows(empty, 4, 1).size(), 0u);
  EXPECT_EQ(PadTimeWindows(empty, 1.0, 4).size(), 0u);
  EXPECT_DOUBLE_EQ(PaddingRatio(empty), 0.0);
}

// ---------------------------------------------------------------------
// Multi-pattern monitoring.

TEST(MultiPattern, SharedFilterServesBothPatternsWithoutFalsePositives) {
  const EventStream train = SmallStream(2500, 67);
  const EventStream test = SmallStream(700, 68);
  auto schema = train.schema_ptr();

  std::vector<Pattern> patterns;
  patterns.push_back(TypeOnlySeq(schema, 8));
  {
    PatternBuilder b(schema);
    auto root = b.Seq(b.Prim("D", "d"), b.Prim("E", "e"));
    patterns.push_back(b.BuildOrDie(std::move(root), WindowSpec::Count(6)));
  }

  DlacepConfig config;
  config.network.hidden_dim = 12;
  config.network.num_layers = 1;
  config.train.max_epochs = 45;
  config.event_threshold = 0.35;

  MultiPatternDlacep system(patterns, train, config);
  MultiPatternResult result = system.Evaluate(test);
  ASSERT_EQ(result.per_pattern.size(), 2u);

  for (size_t p = 0; p < patterns.size(); ++p) {
    const MatchSet exact = EnumerateAllMatches(
        patterns[p], {test.events().data(), test.size()});
    for (const Match& m : result.per_pattern[p]) {
      EXPECT_TRUE(exact.Contains(m)) << "pattern " << p;
    }
    // The unified filter must preserve a reasonable share of each
    // pattern's matches.
    const MatchSetMetrics quality =
        CompareMatchSets(exact, result.per_pattern[p]);
    EXPECT_GT(quality.recall, 0.5) << "pattern " << p;
  }
  EXPECT_GT(result.filtering_ratio(), 0.0);
}

TEST(MultiPattern, FastPathEvaluateMatchesLegacyTapeMarking) {
  // Evaluate marks through the online runtime (batched MarkBatchOnline
  // calls); sequential per-window Mark calls on the shared filter are
  // the reference it must reproduce bit for bit, at any batch size.
  const EventStream train = SmallStream(1200, 71);
  const EventStream test = SmallStream(500, 72);
  auto schema = train.schema_ptr();

  std::vector<Pattern> patterns;
  patterns.push_back(TypeOnlySeq(schema, 8));
  {
    PatternBuilder b(schema);
    auto root = b.Seq(b.Prim("D", "d"), b.Prim("E", "e"));
    patterns.push_back(b.BuildOrDie(std::move(root), WindowSpec::Count(6)));
  }

  DlacepConfig config;
  config.network.hidden_dim = 8;
  config.network.num_layers = 1;
  config.train.max_epochs = 5;
  MultiPatternDlacep system(patterns, train, config);

  std::vector<PipelineResult> reference;
  for (const Pattern& pattern : patterns) {
    reference.push_back(testing_util::ReferenceEvaluate(
        pattern, *system.filter(), test, 2 * system.max_window(),
        system.max_window()));
  }

  for (const size_t batch : {1u, 4u}) {
    system.set_batch_size(batch);
    const MultiPatternResult result = system.Evaluate(test);
    ASSERT_EQ(result.per_pattern.size(), patterns.size());
    EXPECT_EQ(result.marked_events, reference[0].marked_events);
    for (size_t p = 0; p < patterns.size(); ++p) {
      const MatchSet& want = reference[p].matches;
      EXPECT_EQ(result.per_pattern[p].size(), want.size())
          << "batch=" << batch << " pattern=" << p;
      EXPECT_EQ(result.per_pattern[p].IntersectionSize(want), want.size())
          << "batch=" << batch << " pattern=" << p;
    }
  }
}

}  // namespace
}  // namespace dlacep
