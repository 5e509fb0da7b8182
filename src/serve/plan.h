// Shared-CEP planning for the multi-query serving layer.
//
// With many registered queries over one filtered stream, per-query CEP
// work overlaps in three exploitable ways (Kolchinsky & Schuster,
// "Join Query Optimization Techniques for CEP" — multi-query sub-plan
// sharing, PAPERS.md):
//
//  1. STRUCTURAL TWINS. Two registrations that are the same pattern up
//     to variable names (and run the same engine) produce identical
//     match sets when extracted over identical event sets — evaluate
//     one engine and fan the MatchSet out to every twin.
//  2. TYPE OCCUPANCY. A pattern whose root requires a primitive
//     position with type set T can have no matches over an event set
//     containing no event of any type in T — skip the engine.
//  3. SHARED SEQ PREFIXES. SEQ queries sharing their first two
//     positions (same type sets, same conditions over the first two
//     variables) all require a 2-event "witness" prefix match: if an
//     early-exit existence search finds no witness in the event set,
//     every query in the bucket is matchless and no engine runs. Sound
//     because the first two bound events of any full SEQ match form a
//     prefix match within the (maximal) count window.
//
// The plan is purely structural — computed once per registry snapshot,
// off the hot path. Which groups actually share work at extraction
// time additionally depends on the per-query marked-event sets (two
// twins only share an engine evaluation when their event sets are
// identical); the runtime's extraction stage (runtime/extraction.cc)
// makes that cut.

#ifndef DLACEP_SERVE_PLAN_H_
#define DLACEP_SERVE_PLAN_H_

#include <span>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "pattern/pattern.h"

namespace dlacep {
namespace serve {

/// Planner input: one registered query (pattern borrowed).
struct PlanQuery {
  const Pattern* pattern = nullptr;
  EngineKind engine = EngineKind::kNfa;
};

/// Queries that are structurally identical (same canonical key): one
/// engine evaluation serves every member when their event sets agree.
struct SharedGroup {
  /// Indices into the planner's query span; members[0] is canonical.
  std::vector<size_t> members;
  /// Type sets the root requires at least one event of, one entry per
  /// mandatory primitive position (empty: no occupancy pruning — e.g.
  /// DISJ roots or negated-only positions).
  std::vector<std::vector<TypeId>> required_types;
  /// Index into SharedCepPlan::guards, -1 when the group has no
  /// 2-prefix witness guard.
  int guard = -1;
};

struct SharedCepPlan {
  std::vector<SharedGroup> groups;
  /// 2-prefix witness patterns, each shared by every group whose
  /// members carry that prefix. Window = max member window (sound: any
  /// member match's prefix spans at most its own window).
  std::vector<Pattern> guards;
  /// Queries served by a structural twin's evaluation (members beyond
  /// each group's canonical).
  size_t structural_duplicates = 0;
};

/// Canonical structural rendering of (pattern, engine): operator tree
/// with var *ids* (names erased), type sets, Kleene bounds, conditions
/// rendered canonically (exact hexfloat coefficients, attribute ids;
/// opaque lambda conditions key on object identity and never merge),
/// count window, engine name. Two queries with equal keys have
/// identical match sets over identical event sets.
std::string StructuralKey(const Pattern& pattern, EngineKind engine);

/// Groups queries by StructuralKey and attaches occupancy sets and
/// prefix guards. Patterns must outlive the plan.
SharedCepPlan BuildSharedCepPlan(std::span<const PlanQuery> queries);

/// Early-exit existence search for a 2-position SEQ guard over events
/// sorted by ascending id (deduplicated): true iff some pair (e_i, e_j)
/// with i < j matches the two primitive positions, satisfies every
/// guard condition, and spans at most window-1 id units.
bool SeqPrefixWitness(const Pattern& guard,
                      std::span<const Event* const> events);

}  // namespace serve
}  // namespace dlacep

#endif  // DLACEP_SERVE_PLAN_H_
