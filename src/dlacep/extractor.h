// CEP extractor (paper §4.4).
//
// Marked events keep their unique increasing arrival ids. The extractor
// concatenates the deduplicated marked events into a filtered stream and
// evaluates it with an exact CEP engine whose count-window constraint is
// enforced over event *ids*, not stream positions — the paper's
// mechanism guaranteeing that (NEG-free) DLACEP output is a subset of
// the exact match set: a match spans at most W-1 id units no matter how
// many unmarked events were dropped in between. The online runtime
// extracts through its ExtractionStage (runtime/extraction.h); this
// one-pattern pass is the reference evaluators' and exact baselines'.

#ifndef DLACEP_DLACEP_EXTRACTOR_H_
#define DLACEP_DLACEP_EXTRACTOR_H_

#include <memory>
#include <vector>

#include "cep/engine.h"
#include "pattern/pattern.h"

namespace dlacep {

class CepExtractor {
 public:
  /// `engine_kind` defaults to the NFA engine; Fig 12 style setups may
  /// plug the tree, lazy, or adaptive engine instead.
  CepExtractor(const Pattern& pattern,
               EngineKind engine_kind = EngineKind::kNfa,
               const EngineOptions& options = EngineOptions{});

  /// Deduplicates `marked` (by id), sorts by arrival, and extracts all
  /// matches. The returned set is merged into `out`.
  Status Extract(std::vector<const Event*> marked, MatchSet* out);

  const EngineStats& stats() const { return engine_->stats(); }

 private:
  std::unique_ptr<CepEngine> engine_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_EXTRACTOR_H_
