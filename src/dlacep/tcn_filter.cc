#include "dlacep/tcn_filter.h"

#include "dlacep/slab.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

TcnEventFilter::TcnEventFilter(const Featurizer* featurizer,
                               const NetworkConfig& network,
                               double event_threshold, size_t kernel)
    : featurizer_(featurizer),
      event_threshold_(event_threshold),
      init_rng_(network.seed + 2),
      backbone_("tcn.stack", featurizer->feature_dim(),
                network.hidden_dim, network.num_layers, kernel,
                &init_rng_),
      head_fwd_("tcn.head_fwd", backbone_.out_dim(), 2, &init_rng_),
      head_bwd_("tcn.head_bwd", backbone_.out_dim(), 2, &init_rng_),
      crf_("tcn.crf", 2, &init_rng_) {
  DLACEP_CHECK(featurizer_ != nullptr);
  Refreeze();
}

void TcnEventFilter::Refreeze() {
  frozen_.backbone = Freeze(backbone_);
  frozen_.head_fwd = Freeze(head_fwd_);
  frozen_.head_bwd = Freeze(head_bwd_);
}

void TcnEventFilter::OnParamsChanged() { Refreeze(); }

std::pair<Var, Var> TcnEventFilter::Emissions(
    Tape* tape, const Matrix& features) const {
  Var h = backbone_.Forward(tape, tape->Input(features));
  return {head_fwd_.Forward(tape, h), head_bwd_.Forward(tape, h)};
}

Var TcnEventFilter::Loss(Tape* tape, const Sample& sample) {
  auto [emissions_f, emissions_b] = Emissions(tape, sample.features);
  return crf_.Nll(tape, emissions_f, emissions_b, sample.labels);
}

std::vector<Parameter*> TcnEventFilter::Params() {
  std::vector<Parameter*> params = backbone_.Params();
  for (Parameter* p : head_fwd_.Params()) params.push_back(p);
  for (Parameter* p : head_bwd_.Params()) params.push_back(p);
  for (Parameter* p : crf_.Params()) params.push_back(p);
  return params;
}

void TcnEventFilter::MarkSlab(std::span<const Matrix> features,
                              const Matrix& thresholds, InferenceContext* ctx,
                              std::vector<int>* marks) const {
  obs::TraceSpan forward_span(obs::StageNnForwardInfer());
  ctx->Reset();
  std::vector<size_t> offsets;
  const Matrix& x_all = StackSlab(features, ctx, &offsets);
  DecodeCrfSlab(frozen_.backbone.ForwardBatch(ctx, x_all, offsets), offsets,
                frozen_.head_fwd, frozen_.head_bwd, crf_, thresholds, ctx,
                marks);
}

void TcnEventFilter::MarkWindows(std::span<const WindowView> windows,
                                 InferenceContext* ctx,
                                 std::vector<int>* marks) const {
  const std::vector<Matrix> features = EncodeWindows(*featurizer_, windows);
  MarkSlab(features, WindowThresholds(windows, {&event_threshold_, 1}), ctx,
           marks);
}

std::vector<int> TcnEventFilter::MarkFeatures(const Matrix& features,
                                                InferenceContext* ctx) const {
  if (ctx == nullptr) {
    InferenceContext local;
    return MarkFeatures(features, &local);
  }
  std::vector<int> marks;
  MarkSlab({&features, 1}, Matrix(1, 1, event_threshold_), ctx, &marks);
  return marks;
}

std::vector<int> TcnEventFilter::MarkFeaturesTape(
    const Matrix& features) const {
  obs::TraceSpan forward_span(obs::StageNnForwardTape());
  Tape tape;
  auto [emissions_f, emissions_b] = Emissions(&tape, features);
  return ThresholdMarginals(
      crf_.Marginals(emissions_f.value(), emissions_b.value()),
      event_threshold_);
}

TrainResult TcnEventFilter::Fit(const std::vector<Sample>& samples,
                                const TrainConfig& config) {
  const TrainResult result = Train(this, samples, config);
  Refreeze();
  return result;
}

BinaryMetrics TcnEventFilter::Score(
    const std::vector<Sample>& samples) const {
  BinaryMetrics metrics;
  InferenceContext ctx;
  for (const Sample& sample : samples) {
    metrics.Accumulate(MarkFeatures(sample.features, &ctx), sample.labels);
  }
  return metrics;
}

}  // namespace dlacep
