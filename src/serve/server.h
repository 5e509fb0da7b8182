// The multi-query serving runtime: one sharded OnlineDlacep serving
// every query in a QueryRegistry. The ServeFilter runs one trunk
// forward per window, decodes per-query heads, relays the union of
// their marks, and records per-query attribution; the runtime's
// ExtractionStage (runtime/extraction.h) turns the relayed store plus
// that attribution into per-query MatchSets through the shared plan.
// A Run() is one runtime Run() plus the per-query metrics.
//
// Queries unregistered mid-run keep their recorded attribution in the
// filter sink (so other queries' sets stay exact) but are not reported;
// queries registered mid-run are reported over the suffix of windows
// they were live for.

#ifndef DLACEP_SERVE_SERVER_H_
#define DLACEP_SERVE_SERVER_H_

#include <vector>

#include "runtime/extraction.h"
#include "runtime/online.h"
#include "serve/breaker.h"
#include "serve/filter.h"
#include "serve/registry.h"

namespace dlacep {
namespace serve {

struct ServeConfig {
  /// Runtime knobs (shards/threads/batching/overload/health/...).
  /// mark_size/step_size of 0 resolve to 2W/W of the registry's widest
  /// query at Run() time. online.engine is unused (each query carries
  /// its own engine), and the two budgets below replace
  /// online.engine_options' budget and deadline. An isolated run
  /// compared against a serve run must use the same explicit geometry.
  OnlineConfig online;
  /// Per-chunk partial-match budget for every extraction engine run
  /// (EngineOptions::partial_match_budget). 0 disables: no aborts,
  /// breakers never trip, answers identical to the unbudgeted path.
  uint64_t query_pm_budget = 0;
  /// Per-chunk wall-clock deadline (EngineOptions::deadline_seconds).
  /// Timing-dependent — prefer the partial-match budget when the abort
  /// point must be deterministic.
  double query_deadline_seconds = 0.0;
  /// Circuit-breaker thresholds (trip_after / probe_period /
  /// probe_passes).
  BreakerConfig breaker;
};

struct MultiQueryResult {
  std::vector<QueryResult> queries;
  RuntimeStats stats;  ///< elapsed_seconds covers the shared extraction
  SharingStats sharing;

  size_t total_matches() const;
  /// Events per second of the whole Run(), extraction included.
  double events_per_sec() const;
  /// The aggregate headline: queries/sec × events/sec, i.e. how many
  /// (query, event) pairs per second this one process serves.
  double query_events_per_sec() const {
    return static_cast<double>(queries.size()) * events_per_sec();
  }
};

class MultiQueryServer {
 public:
  /// `registry`, `base`, and `heads` are borrowed and must outlive the
  /// server; see ServeFilter for the base/heads contract. Adaptive
  /// queries registered by now get persistent, router-fed selectors.
  MultiQueryServer(QueryRegistry* registry, const StreamFilter* base,
                   const EventNetworkFilter* heads,
                   const ServeConfig& config);

  /// Drains `source` through the online runtime under the current
  /// registry (snapshots re-acquired per window, so concurrent
  /// register/unregister is served live), extracting under the
  /// end-of-stream snapshot. kFailedPrecondition when the registry is
  /// empty at start. Per-query breakers persist across Run() calls (a
  /// query tripped by one stream stays suspended into the next).
  ///
  /// Not reentrant: a server owns one per-query attribution sink, and
  /// Run() resets it at start — two concurrent Run() calls on the same
  /// server would interleave recorded marks and discard each other's
  /// state. Serialize runs per server, or construct one MultiQueryServer
  /// per concurrent stream (registries are shareable across servers).
  Status Run(StreamSource* source, MultiQueryResult* result);

 private:
  ServeFilter filter_;
  OnlineDlacep runtime_;
};

}  // namespace serve
}  // namespace dlacep

#endif  // DLACEP_SERVE_SERVER_H_
