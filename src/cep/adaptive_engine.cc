#include "cep/adaptive_engine.h"

#include <algorithm>

#include "cep/nfa_engine.h"
#include "cep/tree_engine.h"

namespace dlacep {

namespace {

// Per-event surcharge factors of the analytic estimates: the lazy
// engine pays candidate buffering and binary searches per chain step,
// the tree additionally materializes intermediate join items. On a
// uniform stream (where ordering buys nothing) they make the NFA the
// stable default; under skew the reordered prefix products dominate
// them by orders of magnitude. They are tie-breaks, not measured prices:
// bench_micro_engines' ns_per_work_unit row puts lazy near 0.2x and the
// tree near 0.05x the NFA per work unit, but the tree does ~25x the
// NFA's units on that span, which this model does not predict, and a
// lazy factor below the hysteresis would move a stream on which
// ordering buys nothing off the NFA.
constexpr double kLazySurcharge = 1.15;
constexpr double kTreeSurcharge = 1.35;

// Prefix products are clamped so a pathological estimate can't reach
// inf and poison the comparison.
constexpr double kCostCap = 1e18;

}  // namespace

AdaptiveEngine::AdaptiveEngine(Pattern pattern, EngineOptions options)
    : pattern_(std::move(pattern)), options_(std::move(options)) {}

StatusOr<std::unique_ptr<AdaptiveEngine>> AdaptiveEngine::Create(
    const Pattern& pattern, const EngineOptions& options) {
  std::unique_ptr<AdaptiveEngine> engine(
      new AdaptiveEngine(pattern, options));
  auto plans = CompilePlans(engine->pattern_);
  if (!plans.ok()) return plans.status();
  engine->plans_ = std::move(plans).value();

  // The NFA handles every validated pattern and anchors the candidate
  // set at index 0 — the initial selection before any traffic is seen.
  auto nfa = NfaEngine::Create(engine->pattern_, options);
  if (!nfa.ok()) return nfa.status();
  Candidate base;
  base.kind = EngineKind::kNfa;
  base.engine = std::move(nfa).value();
  engine->candidates_.push_back(std::move(base));

  // Tree and lazy join the pool only when the pattern is inside their
  // supported class; Kleene/NEG/group-repeat shapes degrade to an
  // NFA-only pool instead of failing the adaptive engine.
  auto tree = TreeEngine::Create(engine->pattern_, options);
  if (tree.ok()) {
    Candidate c;
    c.kind = EngineKind::kTree;
    c.engine = std::move(tree).value();
    engine->candidates_.push_back(std::move(c));
  }
  auto lazy = LazyEngine::Create(engine->pattern_, options);
  if (lazy.ok()) {
    Candidate c;
    c.kind = EngineKind::kLazy;
    c.engine = std::move(lazy).value();
    c.lazy = static_cast<LazyEngine*>(c.engine.get());
    engine->candidates_.push_back(std::move(c));
  }
  return engine;
}

std::vector<EngineKind> AdaptiveEngine::candidate_kinds() const {
  std::vector<EngineKind> kinds;
  kinds.reserve(candidates_.size());
  for (const Candidate& c : candidates_) kinds.push_back(c.kind);
  return kinds;
}

double AdaptiveEngine::AnalyticCost(EngineKind kind) const {
  const double window =
      pattern_.window().kind == WindowKind::kCount
          ? static_cast<double>(pattern_.window().count_size())
          : 100.0;
  const double total = std::max(frequencies_.total(), 1.0);
  double cost = 0.0;
  for (const LinearPlan& plan : plans_) {
    // Expected events per window accepted by each position.
    std::vector<double> rates;
    rates.reserve(plan.num_positions());
    for (const PlanPosition& pos : plan.positions) {
      double weight = 0.0;
      if (frequencies_.empty()) {
        weight = 1.0;  // flat prior: every engine ranks by its surcharge
      } else {
        for (const TypeId type : pos.types) {
          weight += frequencies_.count(type);
        }
      }
      rates.push_back(window * weight / total);
    }
    // The NFA extends prefixes in chain order; the lazy and tree
    // engines are free to instantiate rarest-first, which is exactly
    // what minimizes the prefix-product sum below.
    if (kind != EngineKind::kNfa) {
      std::sort(rates.begin(), rates.end());
    }
    double work = window;  // every engine scans the span once
    double prefix = 1.0;
    for (const double rate : rates) {
      prefix = std::min(kCostCap, prefix * std::max(rate, 1e-6));
      work = std::min(kCostCap, work + prefix);
    }
    cost += work;
  }
  double per_event = cost / window;
  if (kind == EngineKind::kLazy) per_event *= kLazySurcharge;
  if (kind == EngineKind::kTree) per_event *= kTreeSurcharge;
  return per_event;
}

double AdaptiveEngine::CostOf(const Candidate& candidate,
                              double calibration) const {
  const EngineStats& s = candidate.engine->stats();
  if (s.evaluations > 0 && s.events_processed > 0) {
    // The engine has run: trust the measured work per event (the
    // per-evaluate estimate normalized by span size).
    return static_cast<double>(s.transitions + s.partial_matches) /
           static_cast<double>(s.events_processed);
  }
  return AnalyticCost(candidate.kind) * calibration;
}

void AdaptiveEngine::Reselect() {
  // Calibrate analytic estimates against the incumbent's measurements
  // (when it has any), so observed and modelled costs share units and
  // a systematic model error common to all engines cancels.
  const Candidate& incumbent = candidates_[selected_];
  double calibration = 1.0;
  const EngineStats& istats = incumbent.engine->stats();
  if (istats.evaluations > 0 && istats.events_processed > 0) {
    const double analytic = AnalyticCost(incumbent.kind);
    const double observed = CostOf(incumbent, 1.0);
    if (analytic > 0.0 && observed > 0.0) {
      calibration = std::clamp(observed / analytic, 0.1, 10.0);
    }
  }

  const double incumbent_cost = CostOf(incumbent, calibration);
  size_t best = selected_;
  // A challenger must beat the incumbent by the hysteresis margin.
  double best_cost = incumbent_cost * options_.adaptive_hysteresis;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (i == selected_) continue;
    const double cost = CostOf(candidates_[i], calibration);
    if (cost < best_cost) {
      best = i;
      best_cost = cost;
    }
  }
  if (best != selected_) {
    selected_ = best;
    ++switches_;
  }

  // Age the estimate and push the fresh chain ordering into the lazy
  // candidate (reordering is a no-op while it isn't selected).
  frequencies_.Decay();
  for (Candidate& c : candidates_) {
    if (c.lazy != nullptr) c.lazy->SetTypeFrequencies(frequencies_.Snapshot());
  }
  if (hook_) hook_(candidates_[selected_].kind);
}

void AdaptiveEngine::ObserveWindow(std::span<const Event> events) {
  external_feed_ = true;
  frequencies_.ObserveSpan(events);
  ++windows_observed_;
  const size_t k = std::max<size_t>(1, options_.adaptive_reselect_windows);
  if (windows_observed_ % k == 0) Reselect();
}

Status AdaptiveEngine::Evaluate(std::span<const Event> events,
                                MatchSet* out) {
  DLACEP_CHECK(out != nullptr);
  if (!external_feed_) {
    // No router is feeding windows (batch extraction, serving chunks):
    // each evaluated span is one observation, and the very first span
    // already informs the selection so a single batch Evaluate() still
    // benefits from the cost model.
    frequencies_.ObserveSpan(events);
    ++windows_observed_;
    const size_t k = std::max<size_t>(1, options_.adaptive_reselect_windows);
    if (windows_observed_ == 1 || windows_observed_ % k == 0) Reselect();
  }
  Candidate& c = candidates_[selected_];
  // Delegate verbatim — `out` semantics, all-or-nothing budget aborts,
  // and reusability after an abort are exactly the selected engine's.
  const EngineStats before = c.engine->stats();
  const Status status = c.engine->Evaluate(events, out);
  const EngineStats& after = c.engine->stats();
  stats_.events_processed += after.events_processed - before.events_processed;
  stats_.partial_matches += after.partial_matches - before.partial_matches;
  stats_.matches_emitted += after.matches_emitted - before.matches_emitted;
  stats_.partial_matches_dropped +=
      after.partial_matches_dropped - before.partial_matches_dropped;
  stats_.transitions += after.transitions - before.transitions;
  stats_.partial_matches_pruned +=
      after.partial_matches_pruned - before.partial_matches_pruned;
  stats_.budget_aborts += after.budget_aborts - before.budget_aborts;
  stats_.evaluations += after.evaluations - before.evaluations;
  stats_.elapsed_seconds += after.elapsed_seconds - before.elapsed_seconds;
  return status;
}

AdaptiveSnapshot AdaptiveEngine::Snapshot() const {
  AdaptiveSnapshot snap;
  snap.selected = static_cast<int32_t>(selected_kind());
  snap.windows_observed = windows_observed_;
  snap.switches = switches_;
  snap.external_feed = external_feed_ ? 1 : 0;
  snap.frequencies = frequencies_.Snapshot();
  return snap;
}

Status AdaptiveEngine::Restore(const AdaptiveSnapshot& snapshot) {
  size_t index = candidates_.size();
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (static_cast<int32_t>(candidates_[i].kind) == snapshot.selected) {
      index = i;
      break;
    }
  }
  if (index == candidates_.size()) {
    return Status::FailedPrecondition(
        "checkpointed engine selection is not a candidate for this "
        "pattern");
  }
  selected_ = index;
  windows_observed_ = snapshot.windows_observed;
  switches_ = snapshot.switches;
  external_feed_ = snapshot.external_feed != 0;
  frequencies_.Restore(snapshot.frequencies);
  for (Candidate& c : candidates_) {
    if (c.lazy != nullptr) c.lazy->SetTypeFrequencies(frequencies_.Snapshot());
  }
  return Status::Ok();
}

}  // namespace dlacep
