// Per-query circuit breaker for budgeted extraction.
//
// Mirrors the runtime health guard's quarantine / probed-recovery design
// (src/runtime/health.h) on the extraction side: a query whose engine
// repeatedly blows its cooperative budget (kBudgetExceeded) is *tripped*
// — suspended from shared extraction, its results flagged `degraded` —
// while every other query keeps exact answers. A tripped query is
// periodically *probed*: it gets real engine runs again, and a streak of
// clean runs closes the breaker. Structural-twin groupmates of a tripped
// query are split out of the shared engine run transparently (the
// extraction scheduler partitions by breaker verdict), so one tenant's blowup never
// degrades its neighbors.
//
// State machine:
//
//   healthy --(trip_after consecutive budget aborts)--> tripped
//   tripped --(probe_period skipped opportunities)----> probing
//   probing --(budget abort)--------------------------> tripped
//   probing --(probe_passes consecutive clean runs)---> healthy
//
// The breaker is driven entirely by the extraction scheduler's
// deterministic run/skip sequence — no wall clock — so trips and
// recoveries are reproducible run to run.

#ifndef DLACEP_SERVE_BREAKER_H_
#define DLACEP_SERVE_BREAKER_H_

#include <cstdint>

namespace dlacep {
namespace serve {

enum class BreakerState : int {
  kHealthy = 0,
  kTripped = 1,
  kProbing = 2,
};

const char* BreakerStateName(BreakerState state);

struct BreakerConfig {
  /// Consecutive budget aborts that open the breaker.
  uint32_t trip_after = 3;
  /// Skipped extraction opportunities before a tripped query is probed.
  uint32_t probe_period = 8;
  /// Consecutive clean probe runs that close the breaker.
  uint32_t probe_passes = 2;
};

/// One query's breaker. Plain value type; the extraction stage keeps one
/// per registered query across Run() calls so trips persist between
/// streams.
class QueryBreaker {
 public:
  QueryBreaker() = default;
  explicit QueryBreaker(const BreakerConfig& config) : config_(config) {}

  /// Whether the scheduler should give this query a real engine run now.
  /// Healthy and probing queries run; tripped queries are skipped until
  /// the probe period elapses (OnSkipped advances that clock).
  bool ShouldRun() const { return state_ != BreakerState::kTripped; }

  /// A budget-clean engine run completed for this query.
  void OnRunOk();

  /// This query's engine run aborted with kBudgetExceeded.
  void OnBudgetAbort();

  /// The scheduler skipped this query (tripped, or its unit was aborted
  /// by a groupmate sharing the engine). Advances the probe clock.
  void OnSkipped();

  BreakerState state() const { return state_; }
  uint64_t trips() const { return trips_; }
  uint64_t budget_aborts() const { return budget_aborts_; }

 private:
  BreakerConfig config_;
  BreakerState state_ = BreakerState::kHealthy;
  uint32_t consecutive_aborts_ = 0;
  uint32_t skipped_since_trip_ = 0;
  uint32_t clean_probes_ = 0;
  uint64_t trips_ = 0;
  uint64_t budget_aborts_ = 0;
};

}  // namespace serve
}  // namespace dlacep

#endif  // DLACEP_SERVE_BREAKER_H_
