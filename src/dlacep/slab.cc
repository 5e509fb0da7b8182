#include "dlacep/slab.h"

#include <algorithm>
#include <cmath>

#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

std::vector<Matrix> EncodeWindows(const Featurizer& featurizer,
                                  std::span<const WindowView> windows) {
  obs::TraceSpan feature_span(obs::StageFeatureBuild());
  std::vector<Matrix> features;
  features.reserve(windows.size());
  for (const WindowView& w : windows) {
    features.push_back(featurizer.Encode(w.events));
  }
  return features;
}

Matrix WindowThresholds(std::span<const WindowView> windows,
                        std::span<const double> heads) {
  Matrix thresholds(windows.size(), heads.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    for (size_t j = 0; j < heads.size(); ++j) {
      thresholds(w, j) = heads[j] + windows[w].threshold_boost;
    }
  }
  return thresholds;
}

const Matrix& StackSlab(std::span<const Matrix> features,
                        InferenceContext* ctx, std::vector<size_t>* offsets) {
  const size_t batch = features.size();
  offsets->assign(batch + 1, 0);
  for (size_t w = 0; w < batch; ++w) {
    (*offsets)[w + 1] = (*offsets)[w] + features[w].rows();
  }
  if (batch == 1) return features[0];
  Matrix& x_all = ctx->Acquire(offsets->back(), features[0].cols());
  for (size_t w = 0; w < batch; ++w) {
    std::copy_n(features[w].data(), features[w].rows() * features[w].cols(),
                x_all.data() + (*offsets)[w] * x_all.cols());
  }
  return x_all;
}

std::vector<int> ThresholdMarginals(const Matrix& marginals,
                                    double threshold) {
  std::vector<int> marks(marginals.rows());
  for (size_t t = 0; t < marginals.rows(); ++t) {
    const double score = marginals(t, 1);
    if (!std::isfinite(score)) {
      return std::vector<int>(marginals.rows(), kInvalidMark);
    }
    marks[t] = score >= threshold ? 1 : 0;
  }
  return marks;
}

void DecodeCrfSlab(const Matrix& h, std::span<const size_t> offsets,
                   const DenseInfer& head_fwd, const DenseInfer& head_bwd,
                   const BiCrf& crf, const Matrix& thresholds,
                   InferenceContext* ctx, std::vector<int>* marks) {
  Matrix& emissions_f = ctx->Acquire(h.rows(), 2);
  Matrix& emissions_b = ctx->Acquire(h.rows(), 2);
  head_fwd.Forward(h, &emissions_f);
  head_bwd.Forward(h, &emissions_b);
  const size_t heads = thresholds.cols();
  for (size_t w = 0; w + 1 < offsets.size(); ++w) {
    const size_t t_len = offsets[w + 1] - offsets[w];
    Matrix& ef = ctx->Acquire(t_len, 2);
    Matrix& eb = ctx->Acquire(t_len, 2);
    std::copy_n(emissions_f.data() + offsets[w] * 2, t_len * 2, ef.data());
    std::copy_n(emissions_b.data() + offsets[w] * 2, t_len * 2, eb.data());
    const Matrix marginals = crf.Marginals(ef, eb);
    for (size_t j = 0; j < heads; ++j) {
      marks[w * heads + j] = ThresholdMarginals(marginals, thresholds(w, j));
    }
  }
}

}  // namespace dlacep
