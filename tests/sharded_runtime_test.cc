// Sharded runtime tests: OnlineDlacep must be byte-identical — marks,
// matches, accounting, overload/health trajectories — at EVERY shard
// count (the batch-pipeline sweep lives in tests/runtime_test.cc).
// Routing is an implementation detail; only throughput may change.
//
// Also covers round-robin routing balance, and checkpoint
// kill-and-restore across shard counts. The whole file must pass under
// TSan (see the CI sanitizer job).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dlacep/oracle_filter.h"
#include "runtime/checkpoint.h"
#include "runtime/fault_injection.h"
#include "runtime/online.h"
#include "runtime/source.h"
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

OnlineResult RunOnline(const EventStream& stream, const Pattern& pattern,
                       const StreamFilter* filter,
                       const OnlineConfig& config) {
  OnlineDlacep online(pattern, filter, config);
  ReplaySource source(&stream);
  return online.Run(&source);
}

// ---------------------------------------------------------------------
// Routing balance.

TEST(ShardedRouting, DispatchSequenceRoutingBalancesZipfStream) {
  // Window k goes to shard k mod N, so the shards' window counts differ
  // by at most one however skewed the symbol mix is.
  const EventStream stream = ZipfStockStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  PassThroughFilter filter;
  for (size_t shards : {2u, 4u, 8u}) {
    OnlineConfig config;
    config.num_shards = shards;
    config.overload.enabled = false;
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    ASSERT_EQ(result.stats.shards.size(), shards);
    uint64_t lo = result.stats.shards[0].windows_routed;
    uint64_t hi = lo;
    uint64_t routed = 0;
    for (const ShardStats& s : result.stats.shards) {
      lo = std::min(lo, s.windows_routed);
      hi = std::max(hi, s.windows_routed);
      routed += s.windows_routed;
    }
    EXPECT_LE(hi - lo, 1u) << "shards=" << shards;
    EXPECT_EQ(routed, result.stats.windows_closed) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------
// Overload determinism across shard counts.

TEST(ShardedOverload, EscalationLadderIsShardCountInvariant) {
  // Watermarks rigged so the pressure signal is a constant: high = 0
  // makes every queue fraction pressure, low < 0 makes relief
  // impossible. The controller's level is then a pure function of the
  // window index (escalate every dwell_windows), so boosted/shed window
  // sets — and with the head-arrival-id shedding salt, the shed marks
  // themselves — must be byte-identical at every shard count.
  const EventStream stream = SmallStream(1500, 33);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;

  OnlineConfig base;
  base.queue_capacity = 64;
  base.overload.enabled = true;
  base.overload.high_watermark = 0.0;
  base.overload.low_watermark = -1.0;
  base.overload.latency_high_seconds = 0.0;
  base.overload.dwell_windows = 2;
  base.overload.shedding = SheddingPolicy::kRandom;

  OnlineConfig single = base;
  single.num_shards = 1;
  const OnlineResult reference = RunOnline(stream, pattern, &filter, single);

  // Windows 0..1 run at level 0, 1..2 boosted, everything after shed.
  EXPECT_EQ(reference.stats.overload_escalations, 2u);
  EXPECT_EQ(reference.stats.overload_level_at_exit, 2);
  EXPECT_EQ(reference.stats.windows_boosted, 2u);
  EXPECT_EQ(reference.stats.windows_shed,
            reference.stats.windows_closed - 3);
  EXPECT_TRUE(reference.stats.Accounted());

  for (size_t shards : {1u, 2u, 4u}) {
    OnlineConfig config = base;
    config.num_shards = shards;
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    EXPECT_EQ(result.marked_ids, reference.marked_ids)
        << "shards=" << shards;
    EXPECT_EQ(result.marked_events, reference.marked_events);
    ExpectSameMatches(result.matches, reference.matches);
    EXPECT_EQ(result.stats.windows_boosted, reference.stats.windows_boosted);
    EXPECT_EQ(result.stats.windows_shed, reference.stats.windows_shed);
    EXPECT_EQ(result.stats.overload_escalations,
              reference.stats.overload_escalations);
    EXPECT_EQ(result.stats.overload_level_at_exit,
              reference.stats.overload_level_at_exit);
    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  }
}

// ---------------------------------------------------------------------
// Degrade-to-exact determinism across shard counts.

/// Pass-through that reports invalid (untrustworthy) marks for a fixed
/// set of window begins — a deterministic health violation. Keys on the
/// window's position: range.begin on the batch path, the head arrival
/// id on the online path (identical values in this lossless replay,
/// since window geometry is global in every mode).
class PoisonWindowFilter : public StreamFilter {
 public:
  std::string name() const override { return "poison-window"; }

  static bool Poisoned(size_t begin) { return begin == 48 || begin == 640; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext*,
                   std::vector<int>* marks) const override {
    for (size_t w = 0; w < windows.size(); ++w) {
      marks[w].assign(windows[w].events.size(),
                      Poisoned(windows[w].position) ? kInvalidMark : 1);
    }
  }
};

TEST(ShardedDegrade, DegradeToExactIsShardCountInvariant) {
  // max_windows_in_flight = 1 serializes close → mark → merge, so the
  // degraded/probe trajectory (which depends on merge-vs-close order)
  // is a pure function of the window index at every shard count. The poisoned
  // begins (windows 3 and 40 of the 16-step geometry) each force one
  // quarantine + degrade; probes recover well before the next poison.
  const EventStream stream = SmallStream(2000, 55);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PoisonWindowFilter filter;

  OnlineConfig base;
  base.queue_capacity = 64;
  base.mark_size = 32;
  base.step_size = 16;
  base.max_windows_in_flight = 1;
  base.overload.enabled = false;
  base.health.enabled = true;
  base.health.probe_period = 4;
  base.health.probe_passes = 2;

  OnlineConfig single = base;
  single.num_shards = 1;
  const OnlineResult reference = RunOnline(stream, pattern, &filter, single);

  EXPECT_EQ(reference.stats.windows_quarantined, 2u);
  EXPECT_EQ(reference.stats.health_degrades, 2u);
  EXPECT_EQ(reference.stats.health_recoveries, 2u);
  EXPECT_GT(reference.stats.windows_degraded, 0u);
  EXPECT_GT(reference.stats.probes_run, 0u);
  EXPECT_TRUE(reference.stats.Accounted());

  for (size_t shards : {1u, 2u, 4u}) {
    OnlineConfig config = base;
    config.num_shards = shards;
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    EXPECT_EQ(result.marked_ids, reference.marked_ids)
        << "shards=" << shards;
    EXPECT_EQ(result.marked_events, reference.marked_events);
    ExpectSameMatches(result.matches, reference.matches);
    EXPECT_EQ(result.stats.events_quarantined,
              reference.stats.events_quarantined);
    EXPECT_EQ(result.stats.windows_quarantined,
              reference.stats.windows_quarantined);
    EXPECT_EQ(result.stats.windows_degraded,
              reference.stats.windows_degraded);
    EXPECT_EQ(result.stats.health_violations,
              reference.stats.health_violations);
    EXPECT_EQ(result.stats.health_degrades, reference.stats.health_degrades);
    EXPECT_EQ(result.stats.health_recoveries,
              reference.stats.health_recoveries);
    EXPECT_EQ(result.stats.probes_run, reference.stats.probes_run);
    EXPECT_EQ(result.stats.probes_passed, reference.stats.probes_passed);
    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  }
}

// ---------------------------------------------------------------------
// Checkpoint/restore in sharded mode.

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove(CheckpointPath(dir).c_str());
  return dir;
}

TEST(ShardedCheckpoint, KillAndRestoreMatchesLegacyUninterruptedRun) {
  // Checkpoints are written quiescently (all shards drained), so the
  // snapshot carries no shard-count state: a 2-shard run killed
  // mid-stream restores into a 4-shard run and finishes byte-identical
  // to a 1-shard run that was never interrupted.
  const EventStream stream = SmallStream(900, 77);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  const std::string dir = FreshDir("ck_sharded_restore");

  PassThroughFilter pass_a;
  OnlineConfig config_a;
  config_a.num_shards = 1;
  config_a.overload.enabled = false;
  OnlineDlacep online_a(pattern, &pass_a, config_a);
  ReplaySource source_a(&stream);
  const OnlineResult a = online_a.Run(&source_a);

  // Run B: 2 shards, permanent source failure mid-stream ("kill"), with
  // a final checkpoint written at abort.
  FaultPlan plan;
  plan.source_fail = true;
  plan.fail_at = 500;
  plan.fail_count = 0;
  FaultInjector injector(plan);
  auto source_b = injector.WrapSource(std::make_unique<ReplaySource>(&stream));
  PassThroughFilter pass_b;
  OnlineConfig config_b;
  config_b.num_shards = 2;
  config_b.overload.enabled = false;
  config_b.checkpoint.dir = dir;
  config_b.checkpoint.every_events = 128;
  OnlineDlacep online_b(pattern, &pass_b, config_b);
  OnlineResult b;
  ASSERT_TRUE(online_b.Run(source_b.get(), &b).ok());
  EXPECT_TRUE(b.stats.source_aborted);
  EXPECT_TRUE(b.stats.Accounted());

  // Run C: 4 shards, restored from B's
  // checkpoint over a fresh source.
  PassThroughFilter pass_c;
  OnlineConfig config_c;
  config_c.num_shards = 4;
  config_c.overload.enabled = false;
  config_c.checkpoint.dir = dir;
  config_c.checkpoint.restore = true;
  OnlineDlacep online_c(pattern, &pass_c, config_c);
  ReplaySource source_c(&stream);
  OnlineResult c;
  ASSERT_TRUE(online_c.Run(&source_c, &c).ok());

  EXPECT_TRUE(c.stats.Accounted());
  EXPECT_EQ(c.stats.events_ingested, stream.size());
  EXPECT_EQ(c.marked_ids, a.marked_ids);
  EXPECT_EQ(c.marked_events, a.marked_events);
  ExpectSameMatches(c.matches, a.matches);
}

}  // namespace
}  // namespace dlacep
