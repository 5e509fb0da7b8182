// The push-based online runtime: the one dataflow every DLACEP
// evaluation runs on. A live source streams through it; a stored stream
// replays through it (DlacepPipeline::Evaluate and
// MultiPatternDlacep::Evaluate are a lossless, overload-off Run over a
// ReplaySource). Its queries live in a serve::QueryRegistry: the
// pattern constructor wraps a one-query registry, MultiPatternDlacep
// passes a fixed one, and MultiQueryServer a live one.
//
//   source ──(producer thread)──▶ bounded ingest queue
//          ──(router)──▶ watermark-closed windows
//          ──(window seq mod N)──▶ N shard workers
//          ──(deterministic in-order merge)──▶ relayed store
//          ──(end of stream)──▶ ExtractionStage ──▶ per-query matches
//
// One producer thread pulls events from a StreamSource, assigns arrival
// ids at ingest (§4.4), and pushes into a bounded RingQueue — blocking
// (lossless backpressure) or dropping (counted) when full. The caller's
// thread is the router: it pops events, closes assembler windows by
// watermark (a window closes exactly when its last event has arrived,
// reproducing InputAssembler::Windows / CountWindows window by window),
// detaches each closed window, and forwards window `seq` to shard
// `seq mod N`. Each shard is one worker thread with its own SPSC
// work/completion rings and nn::InferenceContext scratch arena (the
// tape-free fast path); with N > 1 it is pinned to a core. No shard
// holds per-symbol state, so round-robin routing balances the shards to
// within one window. The router merges completions strictly by
// dispatch sequence (a shard's worker is FIFO, so its completion ring
// is sequence-ordered), so with a lossless producer and the overload
// controller disabled or never triggered, the merged mark sequence,
// deduplicated relayed-event count, and extracted MatchSet are the same
// for every shard count and batch size.
//
// Overload, health, probe, and checkpoint decisions all stay on the
// router, which is what keeps them independent of the shard count.
//
// An OverloadController watches ingest-queue depth and end-to-end
// window latency and degrades with hysteresis — raised filter
// threshold first, then the shedding fallback — recovering when
// pressure clears (see overload.h). The number of windows in flight is
// bounded, which couples filtration pressure back to the ingest queue:
// when marking can't keep up, the queue fills, and either the producer
// blocks (backpressure) or drops are counted — never an unbounded
// buffer.
//
// FAULT TOLERANCE (see health.h, checkpoint.h, fault_injection.h):
// a HealthGuard validates every merged window's marks (kInvalidMark
// sentinels, coverage, mark-latency deadline, anomaly streaks). A
// violation quarantines the window — its events relay unfiltered, so
// recall for that window is 1.0 — and forces the controller into the
// kDegraded level, where every window relays unfiltered until probed
// recovery (periodic shadow-marked windows must pass N consecutive
// health checks) re-enables the filter. Source reads are retried with
// exponential backoff on kUnavailable; a persistent failure aborts
// ingestion cleanly (suffix windows are not fabricated) instead of
// crashing, so a final checkpoint still captures a restorable state.
// The accounting contract grows one term:
//   relayed + filtered + dropped + quarantined == ingested.
//
// CEP extraction runs once at end of stream: the runtime hands its
// deduplicated relayed store, the quarantined ids, and (under serve) the
// filter's per-query attribution to its one ExtractionStage
// (extraction.h), which extracts every registered query through the
// registry's shared plan — a single pattern is a one-query plan. The
// engines are batch evaluators, so per-window latencies measure ingest →
// merged-marks, the filtration service time the overload controller
// manages; RuntimeStats::elapsed_seconds covers the extraction too.

#ifndef DLACEP_RUNTIME_ONLINE_H_
#define DLACEP_RUNTIME_ONLINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "dlacep/config.h"
#include "dlacep/drift.h"
#include "dlacep/filter.h"
#include "dlacep/shedding_filter.h"
#include "nn/infer.h"
#include "runtime/checkpoint.h"
#include "runtime/extraction.h"
#include "runtime/health.h"
#include "runtime/overload.h"
#include "runtime/ring_queue.h"
#include "runtime/source.h"
#include "runtime/stats.h"

namespace dlacep {

namespace serve {
class ServeFilter;
}  // namespace serve

/// Online drift monitoring knobs (flag-only: the runtime records drift
/// firings in RuntimeStats instead of triggering retraining — see
/// dlacep/drift.h for the retraining loop).
struct DriftConfig {
  bool enabled = false;
  /// Training-time marking rate the live rate is compared against.
  double reference_rate = 0.0;
  double tolerance = 0.1;
  size_t window_budget = 8;
};

struct OnlineConfig {
  size_t queue_capacity = 1024;

  /// false: the producer blocks while the queue is full (lossless
  /// backpressure). true: arrivals are dropped when full and counted in
  /// RuntimeStats (the emergency regime the paper's §6 discusses).
  bool drop_when_full = false;

  /// Shard workers: the one parallelism setting (0 = hardware
  /// concurrency). DlacepConfig::num_threads maps onto it.
  size_t num_shards = 1;

  /// Windows dispatched but not yet merged before the router stops
  /// popping events. 0 = 2·num_shards·batch_size + 2: two full
  /// micro-batches per shard, so batch_size bounds real batches.
  size_t max_windows_in_flight = 0;

  /// Assembler geometry, as in DlacepConfig (0 = paper defaults 2W/W).
  size_t mark_size = 0;
  size_t step_size = 0;

  /// Most windows per MarkBatchOnline call (every shard mark is one).
  /// 1 = each window is a batch of one (default). >1: a shard worker
  /// marks up to batch_size adjacent level-0/1 windows from one burst of
  /// its work ring per call — a busy shard's backlog batches naturally,
  /// an idle shard marks solo with no added latency. Shed, degraded,
  /// and probe windows always mark alone. Merge order is unchanged, so
  /// results stay byte-identical to batch_size = 1.
  size_t batch_size = 1;

  /// Pin shard worker k to core (k mod hardware concurrency) when
  /// num_shards > 1. Failures (no affinity API, cgroup cpuset) are
  /// recorded in ShardStats and otherwise ignored.
  bool pin_shard_threads = true;

  /// Exact-CEP engine of the pattern constructor's one query (registry
  /// runtimes take each query's QueryOptions::engine instead). kAdaptive
  /// lets a cost model over per-engine EngineStats pick the cheapest
  /// engine per pattern: the router feeds every closed window into a
  /// decayed per-type frequency estimator, the choice is re-evaluated
  /// every engine_options.adaptive_reselect_windows windows, and the
  /// decision trail lands in dlacep_engine_selected_total{engine,pattern}
  /// and RuntimeStats. Selection is a pure function of the event stream,
  /// so matches stay byte-identical to any static engine. Tree/lazy
  /// kinds abort construction when the pattern is outside their class;
  /// adaptive never does.
  EngineKind engine = EngineKind::kNfa;
  /// Base options of every extraction engine. A partial-match budget or
  /// deadline here makes extraction chunked and breaker-guarded (see
  /// extraction.h).
  EngineOptions engine_options;

  OverloadConfig overload;
  DriftConfig drift;
  HealthConfig health;
  CheckpointConfig checkpoint;

  /// Test/fault-injection hook: called by the worker about to mark
  /// window `seq` (e.g. FaultInjector::OnWorkerWindow wedges one
  /// window). Must be thread-safe; empty = no-op.
  std::function<void(uint64_t)> worker_window_hook;
};

/// Outcome of one Run(): the extracted matches, the merged marks, and
/// the run's counters.
struct OnlineResult {
  /// The pattern constructor's answer. Registry runtimes report every
  /// query's answer in `queries` and leave this empty.
  MatchSet matches;
  /// One entry per query registered at end of stream, in registry order
  /// (empty for the pattern constructor, whose answer is `matches`).
  std::vector<serve::QueryResult> queries;
  serve::SharingStats sharing;
  /// Marked ids in deterministic merge order, duplicates from
  /// overlapping windows included.
  std::vector<EventId> marked_ids;
  size_t marked_events = 0;  ///< deduplicated (== stats.events_relayed)
  RuntimeStats stats;
  /// The extraction's engine counters, summed over engine runs.
  EngineStats cep_stats;

  double filtering_ratio() const {
    return stats.events_appended == 0
               ? 0.0
               : 1.0 - static_cast<double>(marked_events) /
                           static_cast<double>(stats.events_appended);
  }
};

class OnlineDlacep {
 public:
  /// `filter` is borrowed and must outlive the runtime; it may be a
  /// trained network, a shedding baseline, the oracle, or pass-through.
  /// Count windows only. The runtime serves a one-query registry named
  /// config.engine_options.pattern_label with engine config.engine.
  OnlineDlacep(const Pattern& pattern, const StreamFilter* filter,
               const OnlineConfig& config);

  /// Serves every query of `registry` (borrowed; may change while a run
  /// streams — extraction serves the end-of-stream snapshot). Geometry
  /// 0 resolves to 2W/W of the widest query registered when Run()
  /// starts; the first of those anchors the type-shedding fallback.
  /// `attribution` (borrowed, may be null) is the filter's per-query
  /// mark sink; null means every query extracts the whole relayed
  /// store. `breaker` configures the per-query circuit breakers of
  /// budgeted extraction.
  OnlineDlacep(const serve::QueryRegistry* registry,
               const StreamFilter* filter, const OnlineConfig& config,
               const serve::BreakerConfig& breaker = {},
               const serve::ServeFilter* attribution = nullptr);

  /// What a runtime query must satisfy, as a Status (for user-input
  /// paths like the CLI; QueryRegistry::Register applies it): the
  /// streaming assembler requires a count window, and `engine` must run
  /// the pattern (tree/lazy cover SEQ/CONJ/DISJ of primitives only).
  /// The pattern constructor CHECKs the same conditions.
  static Status ValidateForOnline(const Pattern& pattern,
                                  EngineKind engine = EngineKind::kNfa);

  /// Drains `source` to completion. May be called again with a new
  /// source; each call is an independent run with fresh stats. Aborts
  /// on restore/config errors — CLI paths use the Status overload.
  OnlineResult Run(StreamSource* source);

  /// Like Run(), but surfaces checkpoint-restore and configuration
  /// errors as a Status instead of aborting.
  Status Run(StreamSource* source, OnlineResult* result);

 private:
  OnlineDlacep(std::unique_ptr<serve::QueryRegistry> owned,
               const serve::QueryRegistry* registry,
               const StreamFilter* filter, const OnlineConfig& config,
               const serve::BreakerConfig& breaker,
               const serve::ServeFilter* attribution);

  struct DoneWindow {
    size_t begin = 0;
    std::vector<int> marks;
    int level = 0;             ///< overload level the window ran under
    double close_seconds = 0;  ///< run-clock time the watermark closed it
    std::shared_ptr<EventStream> events;
    bool probe = false;        ///< shadow-marked recovery probe
    bool timed_out = false;    ///< synthesized after a deadline abandon
    std::vector<int> shadow_marks;  ///< probe output (inspected only)
  };
  struct RunState;

  void CloseWindow(RunState* state, size_t begin, size_t end);
  void MergeOne(RunState* state, DoneWindow window);
  /// Merges completed windows strictly in dispatch order; blocks until
  /// `target_in_flight` or fewer windows remain pending. The owner of
  /// the next sequence is shard (seq mod N), and its completion ring is
  /// sequence-ordered, so each step pops exactly that ring. With a mark
  /// deadline configured, an overdue window is abandoned: a synthesized
  /// quarantined DoneWindow takes its place so a wedged shard can never
  /// stall the merge line, and its late result is discarded as stale.
  void DrainMerges(RunState* state, size_t target_in_flight);
  /// Shard worker body: burst-pops window tasks from the shard's work
  /// ring, marks them (micro-batching adjacent batchable windows when
  /// batch_size > 1), and burst-pushes completions.
  void ShardLoop(RunState* state, size_t shard_index);
  /// Quiesces in-flight windows and atomically persists a checkpoint.
  void WriteCheckpointNow(RunState* state);
  /// Seeds a fresh RunState from the checkpoint in config_.checkpoint.
  Status RestoreFrom(RunState* state, StreamSource* source);

  /// The pattern constructor's one-query registry (null otherwise).
  std::unique_ptr<serve::QueryRegistry> owned_registry_;
  const serve::QueryRegistry* registry_;   ///< owned_registry_ or borrowed
  const serve::ServeFilter* attribution_;  ///< not owned, may be null
  OnlineConfig config_;
  const StreamFilter* filter_;  ///< not owned
  /// Assembler geometry, resolved at the start of each Run().
  size_t mark_size_ = 0;
  size_t step_size_ = 0;
  size_t num_shards_;
  size_t max_in_flight_;
  /// One scratch arena per shard, reused across windows and runs.
  std::vector<std::unique_ptr<InferenceContext>> contexts_;
  /// Level-2 random-shedding fallback (the type-shedding one depends on
  /// the anchor query and is built per Run()).
  RandomSheddingFilter random_shed_;
  ExtractionStage stage_;
};

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_ONLINE_H_
