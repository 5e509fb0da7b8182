// Linear evaluation plans.
//
// Engines do not interpret the operator tree directly; a Pattern is first
// normalized into one or more `LinearPlan`s (one per DISJ branch). A plan
// is a list of positions to fill with stream events plus
//  * a precedence mask per position (SEQ imposes a total order, CONJ
//    leaves positions unordered),
//  * optional whole-plan repetition (top-level KC(SEQ(...))),
//  * negation sub-patterns anchored between positive positions,
//  * the split of WHERE conditions into positive conditions (never
//    reference a negated variable) and negation conditions (reference at
//    least one negated variable; they qualify a negated occurrence).
//
// The union of the match sets of all plans, deduplicated by event-id set,
// is the pattern's match set M(s)_P.

#ifndef DLACEP_PATTERN_PLAN_H_
#define DLACEP_PATTERN_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"

namespace dlacep {

/// One event slot of a linear plan.
struct PlanPosition {
  VarId var = -1;
  /// Accepted event types, sorted ascending.
  std::vector<TypeId> types;
  /// Kleene position: absorbs min_reps..max_reps ordered events.
  bool kleene = false;
  size_t min_reps = 1;
  size_t max_reps = 1;

  bool Matches(TypeId type) const {
    return std::binary_search(types.begin(), types.end(), type);
  }
};

/// A negated sub-pattern: an ordered run of positions that must NOT occur
/// strictly between the events bound to the bracketing plan positions.
struct NegSubPattern {
  std::vector<PlanPosition> positions;
  /// Index (into LinearPlan::positions) of the nearest positive position
  /// preceding the NEG in the SEQ.
  int after_pos = -1;
  /// Index of the nearest positive position following the NEG.
  int before_pos = -1;
};

/// A condition prepared for the evaluation loop: its variable list, and
/// the Kleene-list subset of it, resolved once when the plan is compiled
/// so that no engine calls Condition::Vars() while evaluating.
struct CompiledCondition {
  const Condition* condition = nullptr;
  std::vector<VarId> vars;         ///< condition->Vars()
  std::vector<VarId> kleene_vars;  ///< the vars bound as Kleene lists

  /// True when every referenced variable is bound (Condition::CanEval).
  bool AllBound(const Binding& binding) const {
    for (VarId v : vars) {
      if (!binding.IsBound(v)) return false;
    }
    return true;
  }
};

/// A compiled, engine-consumable plan.
struct LinearPlan {
  std::vector<PlanPosition> positions;
  /// preds[i]: bitmask of positions that must be filled before position i
  /// may be filled (events arrive in order, so SEQ order reduces to fill
  /// order). Plans are limited to 64 positions.
  std::vector<uint64_t> preds;

  /// Top-level KC(SEQ(...)): the whole position list may repeat, with
  /// every variable accumulating one event per repetition.
  bool group_repeat = false;
  size_t group_min_reps = 1;
  size_t group_max_reps = 1;

  std::vector<NegSubPattern> negs;

  /// Conditions over positive variables only (owned by the Pattern).
  std::vector<const Condition*> pos_conditions;
  /// The pruning index: pruning_index[v] holds, in pos_conditions order,
  /// the positive conditions whose Vars() contain variable v — the checks
  /// that binding v may newly enable. One entry per pattern variable.
  std::vector<std::vector<CompiledCondition>> pruning_index;
  /// Conditions referencing at least one negated variable.
  std::vector<CompiledCondition> neg_conditions;

  const Pattern* pattern = nullptr;  ///< non-owning source pattern

  size_t num_positions() const { return positions.size(); }
};

/// Compiles a validated pattern into its linear plans (one per DISJ
/// branch; a single plan otherwise). The returned plans alias the
/// pattern's conditions and must not outlive it.
StatusOr<std::vector<LinearPlan>> CompilePlans(const Pattern& pattern);

/// True iff a condition may be evaluated on `binding` for *pruning*: all
/// referenced variables are bound and, when two or more referenced
/// variables are Kleene lists, their lengths agree (aligned prefixes).
/// Pruning on unequal-length lists could reject bindings that become
/// valid once the shorter list catches up.
bool ReadyForPruningEval(const CompiledCondition& check,
                         const Binding& binding);

/// The engines' pruning step after binding `var`: evaluates every
/// positive condition of `plan` that references `var` and is ready for
/// pruning. False when one of them fails (the candidate is contradicted).
bool PassesPruning(const LinearPlan& plan, const Binding& binding,
                   VarId var);

/// Checks whether `binding` (a complete assignment of the plan's positive
/// positions) is invalidated by any negated sub-pattern occurring in
/// `stream_span` (which must be sorted by event id and contain the
/// relevant interval).
bool ViolatesNegation(const LinearPlan& plan, const Binding& binding,
                      std::span<const Event> stream_span);

}  // namespace dlacep

#endif  // DLACEP_PATTERN_PLAN_H_
