#include "dlacep/extractor.h"

#include <algorithm>

#include "obs/stages.h"

namespace dlacep {

CepExtractor::CepExtractor(const Pattern& pattern, EngineKind engine_kind,
                           const EngineOptions& options) {
  auto engine = CreateEngine(engine_kind, pattern, options);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  engine_ = std::move(engine).value();
}

Status CepExtractor::Extract(std::vector<const Event*> marked,
                             MatchSet* out) {
  DLACEP_CHECK(out != nullptr);
  // Duplicate marks (overlapping assembler windows) are erased before the
  // relay (paper §4.2) and arrival order restored.
  std::sort(marked.begin(), marked.end(),
            [](const Event* a, const Event* b) { return a->id < b->id; });
  marked.erase(std::unique(marked.begin(), marked.end(),
                           [](const Event* a, const Event* b) {
                             return a->id == b->id;
                           }),
               marked.end());
  std::vector<Event> filtered;
  filtered.reserve(marked.size());
  for (const Event* e : marked) {
    if (!e->is_blank()) filtered.push_back(*e);
  }
  const EngineStats before = engine_->stats();
  const size_t matches_before = out->size();
  const Status status = engine_->Evaluate(
      std::span<const Event>(filtered.data(), filtered.size()), out);
  // Engine stats accumulate across Evaluate() calls and reset between
  // runs; the labelled counters want the monotone per-call delta.
  const EngineStats& after = engine_->stats();
  const std::string& engine_name = engine_->name();
  obs::CepEvents(engine_name)
      ->Increment(after.events_processed - before.events_processed);
  obs::CepPartialMatches(engine_name)
      ->Increment(after.partial_matches - before.partial_matches);
  obs::CepPartialMatchesPruned(engine_name)
      ->Increment(after.partial_matches_pruned -
                  before.partial_matches_pruned);
  obs::CepTransitions(engine_name)
      ->Increment(after.transitions - before.transitions);
  obs::CepMatches(engine_name)->Increment(out->size() - matches_before);
  // Silent recall loss under the legacy storage cap is surfaced, not
  // swallowed: the counter feeds the CLI's end-of-run warning.
  obs::CepPartialMatchesDropped(engine_name)
      ->Increment(after.partial_matches_dropped -
                  before.partial_matches_dropped);
  obs::CepBudgetAborts(engine_name)
      ->Increment(after.budget_aborts - before.budget_aborts);
  return status;
}

}  // namespace dlacep
