// Slab helpers shared by the network filters' marking cores. Every core
// featurizes its B window views, stacks them batch-major into one slab,
// runs its frozen trunk once over it (nn/infer.h ForwardBatch), then
// decodes each window on its own; a single window is the B = 1 slab.

#ifndef DLACEP_DLACEP_SLAB_H_
#define DLACEP_DLACEP_SLAB_H_

#include <span>
#include <vector>

#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "nn/crf.h"
#include "nn/infer.h"

namespace dlacep {

/// Featurizes every view, in order, under the feature-build stage span.
std::vector<Matrix> EncodeWindows(const Featurizer& featurizer,
                                  std::span<const WindowView> windows);

/// The B×H decision-threshold matrix of a batch: entry (w, h) is head
/// h's threshold plus window w's overload boost.
Matrix WindowThresholds(std::span<const WindowView> windows,
                        std::span<const double> heads);

/// Stacks the feature matrices batch-major into one slab acquired from
/// `ctx` (a single matrix is used in place) and fills `offsets` with
/// the B+1 prefix sums of the window lengths.
const Matrix& StackSlab(std::span<const Matrix> features,
                        InferenceContext* ctx, std::vector<size_t>* offsets);

/// Per-event marks: 1 where the "participates" marginal reaches
/// `threshold`. A non-finite marginal would compare false and silently
/// drop the event, so it turns the whole window into the kInvalidMark
/// sentinel instead; downstream either relays everything (batch) or
/// quarantines and degrades (online HealthGuard).
std::vector<int> ThresholdMarginals(const Matrix& marginals,
                                    double threshold);

/// The BI-CRF head shared by the event and TCN filters: two linear
/// emission heads over the trunk slab `h` (row-local, so one slab-wide
/// call equals per-window calls bit for bit), then per window the
/// chain's posterior marginals, decoded against each column of that
/// window's row of `thresholds` (B×H). Writes marks[w * H + j].
void DecodeCrfSlab(const Matrix& h, std::span<const size_t> offsets,
                   const DenseInfer& head_fwd, const DenseInfer& head_bwd,
                   const BiCrf& crf, const Matrix& thresholds,
                   InferenceContext* ctx, std::vector<int>* marks);

}  // namespace dlacep

#endif  // DLACEP_DLACEP_SLAB_H_
