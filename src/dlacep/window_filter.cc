#include "dlacep/window_filter.h"

#include <algorithm>
#include <cmath>

#include "dlacep/slab.h"
#include "nn/ops.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

WindowNetworkFilter::WindowNetworkFilter(const Featurizer* featurizer,
                                         const NetworkConfig& network,
                                         double window_threshold)
    : featurizer_(featurizer),
      window_threshold_(window_threshold),
      init_rng_(network.seed + 1),
      stack_("window.stack", featurizer->feature_dim(), network.hidden_dim,
             network.num_layers, &init_rng_),
      head_("window.head", stack_.out_dim(), 1, &init_rng_) {
  DLACEP_CHECK(featurizer_ != nullptr);
  Refreeze();
}

void WindowNetworkFilter::Refreeze() {
  frozen_.stack = Freeze(stack_);
  frozen_.head = Freeze(head_);
}

void WindowNetworkFilter::OnParamsChanged() { Refreeze(); }

Var WindowNetworkFilter::Logit(Tape* tape,
                               const Matrix& features) const {
  Var h = stack_.Forward(tape, tape->Input(features));
  Var pooled = ops::MaxOverRows(h);
  return head_.Forward(tape, pooled);
}

Var WindowNetworkFilter::Loss(Tape* tape, const Sample& sample) {
  DLACEP_CHECK_EQ(sample.labels.size(), 1u);
  Matrix target(1, 1);
  target(0, 0) = static_cast<double>(sample.labels[0]);
  return ops::BceWithLogits(Logit(tape, sample.features), target);
}

std::vector<Parameter*> WindowNetworkFilter::Params() {
  std::vector<Parameter*> params = stack_.Params();
  for (Parameter* p : head_.Params()) params.push_back(p);
  return params;
}

std::vector<double> WindowNetworkFilter::Probabilities(
    std::span<const Matrix> features, InferenceContext* ctx) const {
  const size_t batch = features.size();
  obs::TraceSpan forward_span(obs::StageNnForwardInfer());
  ctx->Reset();
  std::vector<size_t> offsets;
  const Matrix& x_all = StackSlab(features, ctx, &offsets);
  const Matrix& h = frozen_.stack.ForwardBatch(ctx, x_all, offsets);
  // Column-wise max pooling over each window's hidden sequence, then the
  // 1-unit head: logit = pooled·W + b.
  Matrix& pooled = ctx->Acquire(batch, h.cols());
  for (size_t w = 0; w < batch; ++w) {
    for (size_t j = 0; j < h.cols(); ++j) {
      double best = h(offsets[w], j);
      for (size_t i = offsets[w] + 1; i < offsets[w + 1]; ++i) {
        best = std::max(best, h(i, j));
      }
      pooled(w, j) = best;
    }
  }
  Matrix& logits = ctx->Acquire(batch, 1);
  frozen_.head.Forward(pooled, &logits);
  std::vector<double> probabilities(batch);
  for (size_t w = 0; w < batch; ++w) {
    probabilities[w] = 1.0 / (1.0 + std::exp(-logits(w, 0)));
  }
  return probabilities;
}

double WindowNetworkFilter::WindowProbability(
    const Matrix& features) const {
  InferenceContext ctx;
  return Probabilities({&features, 1}, &ctx)[0];
}

double WindowNetworkFilter::WindowProbabilityTape(
    const Matrix& features) const {
  obs::TraceSpan forward_span(obs::StageNnForwardTape());
  Tape tape;
  const double logit = Logit(&tape, features).value()(0, 0);
  return 1.0 / (1.0 + std::exp(-logit));
}

namespace {

// A NaN probability would compare false against the threshold and mark
// the whole window inapplicable — a silent recall cliff. Map non-finite
// scores to the kInvalidMark sentinel instead.
std::vector<int> MarksForProbability(bool applicable, double probability,
                                     size_t n) {
  if (!std::isfinite(probability)) {
    return std::vector<int>(n, kInvalidMark);
  }
  return std::vector<int>(n, applicable ? 1 : 0);
}

}  // namespace

void WindowNetworkFilter::MarkWindows(std::span<const WindowView> windows,
                                      InferenceContext* ctx,
                                      std::vector<int>* marks) const {
  const std::vector<Matrix> features = EncodeWindows(*featurizer_, windows);
  const std::vector<double> p = Probabilities(features, ctx);
  for (size_t w = 0; w < windows.size(); ++w) {
    marks[w] = MarksForProbability(
        IsApplicable(p[w], windows[w].threshold_boost), p[w],
        windows[w].events.size());
  }
}

std::vector<int> WindowNetworkFilter::MarkFeatures(
    const Matrix& features, InferenceContext* ctx) const {
  if (ctx == nullptr) {
    InferenceContext local;
    return MarkFeatures(features, &local);
  }
  const double p = Probabilities({&features, 1}, ctx)[0];
  return MarksForProbability(IsApplicable(p), p, features.rows());
}

std::vector<int> WindowNetworkFilter::MarkFeaturesTape(
    const Matrix& features) const {
  const double p = WindowProbabilityTape(features);
  return MarksForProbability(IsApplicable(p), p, features.rows());
}

TrainResult WindowNetworkFilter::Fit(const std::vector<Sample>& samples,
                                     const TrainConfig& config) {
  const TrainResult result = Train(this, samples, config);
  Refreeze();
  return result;
}

BinaryMetrics WindowNetworkFilter::Score(
    const std::vector<Sample>& samples) const {
  BinaryMetrics metrics;
  for (const Sample& sample : samples) {
    const int predicted =
        IsApplicable(WindowProbability(sample.features)) ? 1 : 0;
    metrics.Accumulate({predicted}, {sample.labels[0]});
  }
  return metrics;
}

}  // namespace dlacep
