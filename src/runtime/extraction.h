// The one CEP extraction stage (paper §4.4) behind every DLACEP run.
// The online runtime calls it at end of stream with its relayed store;
// every query of the registry snapshot is extracted through the shared
// plan (serve/plan.h): one unit per (structural group × event set),
// after type-occupancy and 2-prefix witness pruning, twins sharing their
// unit's matches. A single pattern is a one-query plan.
//
// Without attribution every query's input is the whole store. With the
// ServeFilter's (serve/filter.h), a query owns the ids its head marked
// plus every relayed event without a per-query decode (quarantined or
// degraded windows, shed-fallback marks) — recall 1.0 per query.
//
// A partial-match budget or deadline splits each unit into fair-share
// chunks guarded by per-query breakers (serve/breaker.h); without one
// nothing can abort, so a unit is one Evaluate over its whole span.

#ifndef DLACEP_RUNTIME_EXTRACTION_H_
#define DLACEP_RUNTIME_EXTRACTION_H_

#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cep/adaptive_engine.h"
#include "cep/engine.h"
#include "serve/breaker.h"
#include "serve/registry.h"

namespace dlacep {
namespace serve {

/// One registered query's extraction outcome.
struct QueryResult {
  QueryId id = 0;
  std::string name;
  MatchSet matches;
  size_t marked_events = 0;  ///< extraction input size (attributed + shared)
  bool shared = false;       ///< served from a structural twin's engine run
  /// True when this query's match set may be incomplete: its engine
  /// blew a budget, or its breaker kept it out of one or more chunk
  /// runs. Matches present are always real (no false positives) — the
  /// per-query analog of the runtime's degraded mode, except budgeted
  /// extraction trades recall for isolation instead of falling back.
  bool degraded = false;
  BreakerState breaker_state = BreakerState::kHealthy;
  uint64_t budget_aborts = 0;   ///< this Run()'s aborts charged to the query
  uint64_t breaker_trips = 0;   ///< breaker trips during this Run()
  uint64_t extract_cost = 0;    ///< fair-share cost units (runs + pm work)
};

/// Shared-CEP effectiveness counters for one extraction.
struct SharingStats {
  size_t partitions = 0;      ///< (structural group × event set) units
  size_t engines_run = 0;     ///< engine evaluations actually executed
  size_t engines_shared = 0;  ///< queries served without their own run
  size_t guard_checks = 0;    ///< witness searches executed
  size_t guard_pruned = 0;    ///< queries emptied by a witness miss
  size_t type_pruned = 0;     ///< queries emptied by type occupancy
  /// Fair-share scheduler chunk outcomes (a budgeted unit's event span
  /// is evaluated in overlapping window-aligned chunks; see
  /// extraction.cc).
  size_t chunks_run = 0;
  size_t chunks_skipped = 0;  ///< every runnable member was suspended
  size_t budget_aborts = 0;   ///< chunks aborted with kBudgetExceeded
  size_t breaker_trips = 0;   ///< trips that occurred during this Run()
};

}  // namespace serve

class ExtractionStage {
 public:
  /// `options` is every engine's base (budget, deadline, caps). The
  /// adaptive engines of `known`'s queries persist across the run.
  ExtractionStage(const serve::RegistrySnapshot& known,
                  const EngineOptions& options,
                  const serve::BreakerConfig& breaker);

  /// Feeds one closed window to every persistent adaptive selector
  /// (from the router, so selection is shard-count independent).
  void ObserveWindow(std::span<const Event> window);

  /// The selector checkpoint v2 persists and RuntimeStats reports (the
  /// first known adaptive query's), or null.
  AdaptiveEngine* first_adaptive() const { return first_adaptive_; }

  /// Extracts every query of `snapshot` from `store` (relayed events,
  /// unique ids) into `queries`, in snapshot order. `recorded` is each
  /// query's marked ids (null: every input is the whole store);
  /// `quarantined` (sorted) strips stale marks from it. `engine_stats`
  /// sums every engine run. Breakers persist across calls.
  Status Extract(const serve::RegistrySnapshot& snapshot,
                 const std::deque<Event>& store,
                 std::span<const EventId> quarantined,
                 const std::map<serve::QueryId, std::vector<EventId>>* recorded,
                 std::vector<serve::QueryResult>* queries,
                 serve::SharingStats* sharing, EngineStats* engine_stats);

 private:
  /// A fresh engine for `entry` (Register already proved it builds).
  std::unique_ptr<CepEngine> MakeEngine(const serve::QueryEntry& entry) const;

  EngineOptions options_;
  serve::BreakerConfig breaker_config_;
  std::map<serve::QueryId, std::unique_ptr<AdaptiveEngine>> persistent_;
  AdaptiveEngine* first_adaptive_ = nullptr;  ///< alias into persistent_
  std::map<serve::QueryId, serve::QueryBreaker> breakers_;
};

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_EXTRACTION_H_
