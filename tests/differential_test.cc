// Differential / property test pass over the whole pipeline:
//
//  * RELAY-ALL EQUIVALENCE — with a filter that relays every event
//    (pass-through, i.e. threshold 0), the approximate pipeline must be
//    exact: the sequential reference evaluator, DlacepPipeline and the
//    online runtime all produce the identical match set to running the
//    CEP engine over the raw stream, across seeds × window geometries ×
//    shard counts (DlacepConfig::num_threads, OnlineConfig::num_shards).
//
//  * ACCOUNTING — relayed + filtered + dropped + quarantined ==
//    ingested holds under lossless, dropping, and fault/quarantine
//    regimes, and the process-global obs counters agree with the
//    per-run RuntimeStats number for number.
//
//  * ENGINE WORK INVARIANT — every NFA candidate transition either
//    prunes or becomes a partial match:
//    transitions == partial_matches + partial_matches_pruned, in both
//    EngineStats and the registry counters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "dlacep/extractor.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;

MatchSet ExactMatches(const Pattern& pattern, const EventStream& stream) {
  std::vector<const Event*> all;
  all.reserve(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) all.push_back(&stream[i]);
  CepExtractor extractor(pattern);
  MatchSet out;
  EXPECT_TRUE(extractor.Extract(std::move(all), &out).ok());
  return out;
}

void ExpectSameMatches(const MatchSet& got, const MatchSet& want) {
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.IntersectionSize(want), want.size());
}

// ---------------------------------------------------------------------
// Relay-all equivalence: approximate pipeline with threshold 0 == exact.

TEST(RelayAllDifferential, BatchAndOnlineEqualExactCep) {
  struct Geometry {
    size_t mark;
    size_t step;
  };
  const Geometry geometries[] = {{0, 0}, {11, 4}, {16, 8}};
  for (uint64_t seed : {7u, 19u, 31u}) {
    const EventStream stream = SmallStream(400, seed);
    const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
    const MatchSet exact = ExactMatches(pattern, stream);
    EXPECT_GT(exact.size(), 0u) << "seed " << seed << " finds no matches; "
                                << "the differential would be vacuous";
    for (const Geometry& g : geometries) {
      const PipelineResult reference = testing_util::ReferenceEvaluate(
          pattern, PassThroughFilter(), stream, g.mark, g.step);
      ExpectSameMatches(reference.matches, exact);
      for (size_t workers : {1u, 2u, 4u}) {
        DlacepConfig batch_config;
        batch_config.num_threads = workers;
        batch_config.mark_size = g.mark;
        batch_config.step_size = g.step;
        DlacepPipeline pipeline(pattern,
                                std::make_unique<PassThroughFilter>(),
                                batch_config);
        const PipelineResult batch = pipeline.Evaluate(stream);
        ExpectSameMatches(batch.matches, exact);
        EXPECT_EQ(batch.marked_events, stream.size());
        EXPECT_EQ(batch.marked_ids, reference.marked_ids);

        PassThroughFilter filter;
        OnlineConfig online_config;
        online_config.num_shards = workers;
        online_config.mark_size = g.mark;
        online_config.step_size = g.step;
        online_config.overload.enabled = false;
        OnlineDlacep online(pattern, &filter, online_config);
        ReplaySource source(&stream);
        const OnlineResult result = online.Run(&source);
        ExpectSameMatches(result.matches, exact);
        EXPECT_EQ(result.marked_ids, reference.marked_ids)
            << "seed=" << seed << " mark=" << g.mark << " step=" << g.step
            << " workers=" << workers;
        EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
        EXPECT_EQ(result.stats.events_filtered, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Accounting identity, cross-checked against the metrics registry.

/// Snapshot of the obs counters the runtime mirrors into RuntimeStats.
struct CounterSnapshot {
  uint64_t ingested, dropped, relayed, filtered, quarantined;
  uint64_t windows_closed, windows_quarantined, windows_degraded;
  uint64_t health_violations, health_degrades, health_recoveries;

  static CounterSnapshot Take() {
    return {obs::EventsIngested()->Value(),
            obs::EventsDropped()->Value(),
            obs::EventsRelayed()->Value(),
            obs::EventsFiltered()->Value(),
            obs::EventsQuarantined()->Value(),
            obs::WindowsClosed()->Value(),
            obs::WindowsQuarantined()->Value(),
            obs::WindowsDegraded()->Value(),
            obs::HealthViolations()->Value(),
            obs::HealthDegrades()->Value(),
            obs::HealthRecoveries()->Value()};
  }
};

/// One fresh-registry online run; returns the result with the counter
/// snapshot taken right after. The registry is process-global while
/// RuntimeStats is per-run, so each cross-check resets first.
OnlineResult RunWithFreshRegistry(OnlineDlacep* online, StreamSource* source,
                                  CounterSnapshot* counters) {
  obs::MetricsRegistry::Global().ResetValues();
  const OnlineResult result = online->Run(source);
  *counters = CounterSnapshot::Take();
  return result;
}

void ExpectCountersMatchStats(const CounterSnapshot& c,
                              const RuntimeStats& s) {
  EXPECT_EQ(c.ingested, s.events_ingested);
  EXPECT_EQ(c.dropped, s.events_dropped_queue);
  EXPECT_EQ(c.relayed, s.events_relayed);
  EXPECT_EQ(c.filtered, s.events_filtered);
  EXPECT_EQ(c.quarantined, s.events_quarantined);
  EXPECT_EQ(c.windows_closed, s.windows_closed);
  EXPECT_EQ(c.windows_quarantined, s.windows_quarantined);
  EXPECT_EQ(c.windows_degraded, s.windows_degraded);
  EXPECT_EQ(c.health_violations, s.health_violations);
  EXPECT_EQ(c.health_degrades, s.health_degrades);
  EXPECT_EQ(c.health_recoveries, s.health_recoveries);
  // The identity holds in the counters themselves, not just the stats.
  EXPECT_EQ(c.relayed + c.filtered + c.dropped + c.quarantined, c.ingested);
  EXPECT_TRUE(s.Accounted()) << s.ToString();
}

TEST(AccountingDifferential, LosslessRunCountersEqualStats) {
  const EventStream stream = SmallStream(600, 43);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;
  OnlineConfig config;
  config.num_shards = 2;
  config.overload.enabled = false;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  CounterSnapshot counters;
  const OnlineResult result = RunWithFreshRegistry(&online, &source,
                                                   &counters);
  ExpectCountersMatchStats(counters, result.stats);
  EXPECT_EQ(counters.ingested, stream.size());
  EXPECT_EQ(counters.dropped, 0u);
  EXPECT_EQ(counters.relayed, stream.size());
}

/// Pass-through whose first `slow_calls` markings sleep — fills the
/// bounded queue so the dropping producer actually drops.
class SlowStartFilter : public StreamFilter {
 public:
  SlowStartFilter(int slow_calls, std::chrono::milliseconds delay)
      : remaining_(slow_calls), delay_(delay) {}
  std::string name() const override { return "slow-start"; }
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

TEST(AccountingDifferential, DroppingRunCountersEqualStats) {
  const EventStream stream = SmallStream(2500, 47);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  SlowStartFilter filter(/*slow_calls=*/4, std::chrono::milliseconds(40));
  OnlineConfig config;
  config.queue_capacity = 8;
  config.drop_when_full = true;
  config.num_shards = 2;
  config.max_windows_in_flight = 2;
  config.overload.enabled = true;
  config.overload.high_watermark = 0.5;
  config.overload.dwell_windows = 1;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  CounterSnapshot counters;
  const OnlineResult result = RunWithFreshRegistry(&online, &source,
                                                   &counters);
  ExpectCountersMatchStats(counters, result.stats);
  EXPECT_GT(counters.dropped, 0u);
  // Every controller transition was mirrored into a labelled counter.
  uint64_t transition_total = 0;
  for (int from = 0; from <= 3; ++from) {
    for (int to = 0; to <= 3; ++to) {
      if (from != to) {
        transition_total += obs::OverloadTransitions(from, to)->Value();
      }
    }
  }
  EXPECT_EQ(transition_total, result.stats.transitions.size());
  for (const OverloadTransition& t : result.stats.transitions) {
    EXPECT_GE(obs::OverloadTransitions(t.from, t.to)->Value(), 1u);
  }
}

/// Sentinel marks for every window starting before `bad_before`, then
/// healthy relay-all — drives quarantine, degraded mode, and probed
/// recovery (same shape as tests/fault_injection_test.cc).
class FlakyFilter : public StreamFilter {
 public:
  explicit FlakyFilter(size_t bad_before) : bad_before_(bad_before) {}
  std::string name() const override { return "flaky"; }
  void MarkWindows(std::span<const WindowView> windows, InferenceContext*,
                   std::vector<int>* marks) const override {
    for (size_t w = 0; w < windows.size(); ++w) {
      marks[w].assign(windows[w].events.size(),
                      windows[w].position < bad_before_ ? kInvalidMark : 1);
    }
  }

 private:
  size_t bad_before_;
};

TEST(AccountingDifferential, QuarantineRunCountersEqualStats) {
  const EventStream stream = SmallStream(800, 53);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  FlakyFilter filter(/*bad_before=*/100);
  OnlineConfig config;
  config.num_shards = 2;
  config.overload.enabled = false;
  config.health.probe_period = 2;
  config.health.probe_passes = 2;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  CounterSnapshot counters;
  const OnlineResult result = RunWithFreshRegistry(&online, &source,
                                                   &counters);
  ExpectCountersMatchStats(counters, result.stats);
  EXPECT_GT(counters.quarantined, 0u);
  EXPECT_GT(counters.windows_quarantined, 0u);
  EXPECT_GE(counters.health_degrades, 1u);
  EXPECT_GE(counters.health_recoveries, 1u);
  EXPECT_EQ(obs::ProbesRun()->Value(), result.stats.probes_run);
  EXPECT_EQ(obs::ProbesPassed()->Value(), result.stats.probes_passed);
  // Quarantine relays unfiltered, so recall against exact CEP is 1.0.
  const MatchSet exact = ExactMatches(pattern, stream);
  EXPECT_EQ(result.matches.IntersectionSize(exact), exact.size());
}

// ---------------------------------------------------------------------
// NFA work invariant, in EngineStats and in the registry counters.

TEST(EngineWorkInvariant, TransitionsSplitIntoStoredAndPruned) {
  // The identity holds per engine: every examined candidate either
  // prunes or is stored as a partial match. The obs counters are
  // labelled by engine name, so each engine's totals are checked
  // against its own registry slice (adaptive folds its delegate's
  // deltas into the "adaptive" label).
  const struct {
    EngineKind kind;
    const char* label;
  } engines[] = {{EngineKind::kNfa, "nfa"},
                 {EngineKind::kTree, "zstream-tree"},
                 {EngineKind::kLazy, "lazy"},
                 {EngineKind::kAdaptive, "adaptive"}};
  obs::MetricsRegistry::Global().ResetValues();
  for (const auto& engine : engines) {
    uint64_t total_transitions = 0;
    for (uint64_t seed : {3u, 13u, 23u}) {
      const EventStream stream = SmallStream(500, seed, /*num_types=*/4);
      // Longer pattern with cross-variable conditions: plenty of
      // pruning.
      const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
      std::vector<const Event*> all;
      for (size_t i = 0; i < stream.size(); ++i) all.push_back(&stream[i]);
      CepExtractor extractor(pattern, engine.kind);
      MatchSet out;
      ASSERT_TRUE(extractor.Extract(std::move(all), &out).ok());
      const EngineStats& stats = extractor.stats();
      EXPECT_GT(stats.transitions, 0u) << engine.label;
      EXPECT_GT(stats.partial_matches_pruned, 0u)
          << engine.label << " seed " << seed;
      EXPECT_EQ(stats.transitions,
                stats.partial_matches + stats.partial_matches_pruned)
          << engine.label << " seed " << seed;
      EXPECT_EQ(stats.evaluations, 1u) << engine.label;
      EXPECT_GT(stats.work_per_evaluate(), 0.0) << engine.label;
      total_transitions += stats.transitions;
    }
    // The labelled counters carried the same totals across all three
    // runs.
    EXPECT_EQ(obs::CepTransitions(engine.label)->Value(), total_transitions)
        << engine.label;
    EXPECT_EQ(obs::CepTransitions(engine.label)->Value(),
              obs::CepPartialMatches(engine.label)->Value() +
                  obs::CepPartialMatchesPruned(engine.label)->Value())
        << engine.label;
  }
}

}  // namespace
}  // namespace dlacep
