// NFA-based evaluation engine — the paper's baseline ECEP mechanism
// (§2.1, Fig 2).
//
// Each stored partial match is an automaton "prefix": a partial
// assignment of events to plan positions. Under skip-till-any-match,
// every arriving event may extend every stored partial match (creating a
// copy — the original remains stored) or start a new one. This is the
// mechanism whose partial-match count explodes exponentially with the
// window size, motivating DLACEP.
//
// Supports the full pattern class of pattern.h: SEQ/CONJ/DISJ branches,
// KC positions, top-level KC(SEQ) group repetition, and NEG sub-patterns
// (checked at emission against the evaluated span).

#ifndef DLACEP_CEP_NFA_ENGINE_H_
#define DLACEP_CEP_NFA_ENGINE_H_

#include <vector>

#include "cep/engine.h"

namespace dlacep {

class NfaEngine : public CepEngine {
 public:
  /// Fails (kUnimplemented / kInvalidArgument) when the pattern is
  /// outside the supported class.
  static StatusOr<std::unique_ptr<NfaEngine>> Create(
      const Pattern& pattern, const EngineOptions& options);

  std::string name() const override { return "nfa"; }

  Status Evaluate(std::span<const Event> events, MatchSet* out) override;

 private:
  NfaEngine(Pattern pattern, EngineOptions options);

  /// One automaton prefix.
  struct PartialMatch {
    uint64_t mask = 0;    ///< positions filled in the current repetition
    uint32_t reps = 0;    ///< completed group repetitions
    Binding binding;
    EventId first_id = 0;
    double first_ts = 0.0;
  };

  void EvaluatePlan(const LinearPlan& plan, std::span<const Event> events,
                    MatchSet* out, EngineBudget* budget);

  /// Emits the match if the partial match is complete and valid.
  void MaybeEmit(const LinearPlan& plan, const PartialMatch& pm,
                 std::span<const Event> events, MatchSet* out);

  Pattern pattern_;
  EngineOptions options_;
  std::vector<LinearPlan> plans_;
  uint64_t full_mask_ = 0;  // per-plan value computed during evaluation
};

}  // namespace dlacep

#endif  // DLACEP_CEP_NFA_ENGINE_H_
