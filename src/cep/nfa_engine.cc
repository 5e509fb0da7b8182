#include "cep/nfa_engine.h"

#include <algorithm>
#include <bit>

namespace dlacep {

NfaEngine::NfaEngine(Pattern pattern, EngineOptions options)
    : pattern_(std::move(pattern)), options_(options) {}

StatusOr<std::unique_ptr<NfaEngine>> NfaEngine::Create(
    const Pattern& pattern, const EngineOptions& options) {
  std::unique_ptr<NfaEngine> engine(new NfaEngine(pattern, options));
  auto plans = CompilePlans(engine->pattern_);
  if (!plans.ok()) return plans.status();
  engine->plans_ = std::move(plans).value();
  return engine;
}

void NfaEngine::MaybeEmit(const LinearPlan& plan, const PartialMatch& pm,
                          std::span<const Event> events, MatchSet* out) {
  if (pm.mask != full_mask_) return;
  // Kleene positions must have reached their minimum absorption.
  for (size_t i = 0; i < plan.num_positions(); ++i) {
    const PlanPosition& pos = plan.positions[i];
    if (pos.kleene &&
        pm.binding.Of(pos.var).size() < pos.min_reps * (pm.reps + 1)) {
      return;
    }
  }
  if (plan.group_repeat && pm.reps + 1 < plan.group_min_reps) return;
  // Full condition check (covers aligned-Kleene semantics that pruning
  // skips mid-repetition).
  for (const Condition* condition : plan.pos_conditions) {
    if (!condition->Eval(pm.binding)) return;
  }
  if (!FitsWindow(pm.binding.AllEvents(), pattern_.window())) return;
  if (ViolatesNegation(plan, pm.binding, events)) return;
  ++stats_.matches_emitted;
  out->Insert(MatchFromBinding(pm.binding));
}

void NfaEngine::EvaluatePlan(const LinearPlan& plan,
                             std::span<const Event> events, MatchSet* out,
                             EngineBudget* budget) {
  const size_t n = plan.num_positions();
  full_mask_ = n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  const WindowSpec& window = pattern_.window();

  std::vector<PartialMatch> storage;
  // Extensions created by the current event, kept apart from `storage`
  // until the event is done; reused across events.
  std::vector<PartialMatch> created;

  for (const Event& e : events) {
    if (e.is_blank()) continue;
    if (budget->exceeded()) return;

    auto is_expired = [&](const PartialMatch& pm) {
      // Extensions only add events at or after `e`, so a prefix whose
      // anchor is out of `e`'s window range can never complete.
      if (window.kind == WindowKind::kCount) {
        return e.id - pm.first_id >
               static_cast<EventId>(window.count_size()) - 1;
      }
      return e.timestamp - pm.first_ts > window.size;
    };

    const size_t stored_before = storage.size();
    created.clear();
    // Positions accepting `e`'s type, resolved once per event instead of
    // once per stored prefix.
    uint64_t accepting = 0;
    for (size_t p = 0; p < n; ++p) {
      if (plan.positions[p].Matches(e.type)) accepting |= uint64_t{1} << p;
    }

    auto try_store = [&](PartialMatch&& pm) {
      ++stats_.partial_matches;
      if (!budget->OnPartialMatch()) return;
      if (storage.size() + created.size() >= options_.max_partial_matches) {
        ++stats_.partial_matches_dropped;
        return;
      }
      MaybeEmit(plan, pm, events, out);
      created.push_back(std::move(pm));
    };

    // One transition: binds `e` to `var` in the stored prefix itself,
    // prunes, and stores a copy (with the new mask and repetition count)
    // only when the extension survives, so a pruned candidate costs no
    // copy. Every transition either prunes or reaches try_store, so
    // across a run transitions == partial_matches + partial_matches_pruned.
    auto extend = [&](PartialMatch& pm, VarId var, uint64_t mask,
                      uint32_t reps) {
      ++stats_.transitions;
      pm.binding.Bind(var, &e);
      if (PassesPruning(plan, pm.binding, var)) {
        PartialMatch next = pm;
        next.mask = mask;
        next.reps = reps;
        try_store(std::move(next));
      } else {
        ++stats_.partial_matches_pruned;
      }
      pm.binding.Unbind(var);
    };

    // Extend every live stored prefix (skip-till-any-match keeps the
    // original stored), compacting expired prefixes away in the same
    // pass. Only prefixes created before this event are candidates;
    // `stored_before` freezes the range.
    size_t write = 0;
    for (size_t s = 0; s < stored_before; ++s) {
      if (!budget->OnWork()) return;
      if (is_expired(storage[s])) continue;
      if (write != s) storage[write] = std::move(storage[s]);
      PartialMatch& pm = storage[write];
      ++write;
      for (uint64_t left = accepting; left != 0; left &= left - 1) {
        const size_t p = static_cast<size_t>(std::countr_zero(left));
        const PlanPosition& pos = plan.positions[p];
        const bool filled = (pm.mask >> p) & 1;
        if (!filled) {
          // Fill a fresh position: all predecessors must be filled.
          if ((plan.preds[p] & pm.mask) != plan.preds[p]) continue;
          extend(pm, pos.var, pm.mask | (uint64_t{1} << p), pm.reps);
        } else if (pos.kleene) {
          // Absorb another event into a Kleene position, allowed only
          // while no successor position has been filled yet.
          const size_t limit = pos.max_reps * (pm.reps + 1);
          if (pm.binding.Of(pos.var).size() >= limit) continue;
          bool successor_filled = false;
          for (size_t q = 0; q < n; ++q) {
            if (((plan.preds[q] >> p) & 1) && ((pm.mask >> q) & 1)) {
              successor_filled = true;
              break;
            }
          }
          if (successor_filled) continue;
          extend(pm, pos.var, pm.mask, pm.reps);
        }
      }
      // Group repetition: a complete prefix may loop back to position 0.
      if (plan.group_repeat && pm.mask == full_mask_ &&
          pm.reps + 1 < plan.group_max_reps && (accepting & 1) != 0) {
        extend(pm, plan.positions[0].var, uint64_t{1} << 0, pm.reps + 1);
      }
    }

    storage.resize(write);

    // Start fresh prefixes at positions with no predecessors.
    for (uint64_t left = accepting; left != 0; left &= left - 1) {
      const size_t p = static_cast<size_t>(std::countr_zero(left));
      const PlanPosition& pos = plan.positions[p];
      if (plan.preds[p] != 0) continue;
      PartialMatch pm;
      pm.mask = uint64_t{1} << p;
      pm.binding = Binding(pattern_.num_vars());
      pm.binding.Bind(pos.var, &e);
      pm.first_id = e.id;
      pm.first_ts = e.timestamp;
      ++stats_.transitions;
      if (!PassesPruning(plan, pm.binding, pos.var)) {
        ++stats_.partial_matches_pruned;
        continue;
      }
      try_store(std::move(pm));
    }

    for (PartialMatch& pm : created) {
      storage.push_back(std::move(pm));
    }
  }
}

Status NfaEngine::Evaluate(std::span<const Event> events, MatchSet* out) {
  DLACEP_CHECK(out != nullptr);
  Stopwatch watch;
  EngineBudget budget(options_);
  // With a budget armed, emit into a local set so an abort leaves `out`
  // untouched: callers see all-or-nothing per Evaluate() call.
  const bool budgeted =
      options_.partial_match_budget > 0 || options_.deadline_seconds > 0.0;
  MatchSet local;
  MatchSet* sink = budgeted ? &local : out;
  for (const LinearPlan& plan : plans_) {
    EvaluatePlan(plan, events, sink, &budget);
    if (budget.exceeded()) break;
  }
  stats_.events_processed += events.size();
  ++stats_.evaluations;
  stats_.elapsed_seconds += watch.ElapsedSeconds();
  if (budget.exceeded()) {
    ++stats_.budget_aborts;
    return budget.ToStatus("nfa");
  }
  if (budgeted) out->Merge(local);
  return Status::Ok();
}

}  // namespace dlacep
