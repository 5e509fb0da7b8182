#include "dlacep/event_filter.h"

#include "dlacep/slab.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

EventNetworkFilter::EventNetworkFilter(const Featurizer* featurizer,
                                       const NetworkConfig& network,
                                       double event_threshold)
    : featurizer_(featurizer),
      event_threshold_(event_threshold),
      init_rng_(network.seed),
      stack_("event.stack", featurizer->feature_dim(), network.hidden_dim,
             network.num_layers, &init_rng_),
      head_fwd_("event.head_fwd", stack_.out_dim(), 2, &init_rng_),
      head_bwd_("event.head_bwd", stack_.out_dim(), 2, &init_rng_),
      crf_("event.crf", 2, &init_rng_) {
  DLACEP_CHECK(featurizer_ != nullptr);
  Refreeze();
}

void EventNetworkFilter::Refreeze() {
  frozen_.stack = Freeze(stack_);
  frozen_.head_fwd = Freeze(head_fwd_);
  frozen_.head_bwd = Freeze(head_bwd_);
}

void EventNetworkFilter::OnParamsChanged() { Refreeze(); }

std::pair<Var, Var> EventNetworkFilter::Emissions(
    Tape* tape, const Matrix& features) const {
  Var h = stack_.Forward(tape, tape->Input(features));
  return {head_fwd_.Forward(tape, h), head_bwd_.Forward(tape, h)};
}

Var EventNetworkFilter::Loss(Tape* tape, const Sample& sample) {
  auto [emissions_f, emissions_b] = Emissions(tape, sample.features);
  return crf_.Nll(tape, emissions_f, emissions_b, sample.labels);
}

std::vector<Parameter*> EventNetworkFilter::Params() {
  std::vector<Parameter*> params = stack_.Params();
  for (Parameter* p : head_fwd_.Params()) params.push_back(p);
  for (Parameter* p : head_bwd_.Params()) params.push_back(p);
  for (Parameter* p : crf_.Params()) params.push_back(p);
  return params;
}

void EventNetworkFilter::MarkSlab(std::span<const Matrix> features,
                                  const Matrix& thresholds,
                                  InferenceContext* ctx,
                                  std::vector<int>* marks) const {
  obs::TraceSpan forward_span(obs::StageNnForwardInfer());
  ctx->Reset();
  std::vector<size_t> offsets;
  const Matrix& x_all = StackSlab(features, ctx, &offsets);
  DecodeCrfSlab(frozen_.stack.ForwardBatch(ctx, x_all, offsets), offsets,
                frozen_.head_fwd, frozen_.head_bwd, crf_, thresholds, ctx,
                marks);
}

void EventNetworkFilter::MarkWindows(std::span<const WindowView> windows,
                                     InferenceContext* ctx,
                                     std::vector<int>* marks) const {
  MarkWindowsMultiHead(windows, ctx, {&event_threshold_, 1}, marks);
}

void EventNetworkFilter::MarkWindowsMultiHead(
    std::span<const WindowView> windows, InferenceContext* ctx,
    std::span<const double> thresholds, std::vector<int>* marks) const {
  const std::vector<Matrix> features = EncodeWindows(*featurizer_, windows);
  MarkSlab(features, WindowThresholds(windows, thresholds), ctx, marks);
}

std::vector<int> EventNetworkFilter::MarkFeatures(
    const Matrix& features, InferenceContext* ctx) const {
  if (ctx == nullptr) {
    InferenceContext local;
    return MarkFeatures(features, &local);
  }
  std::vector<int> marks;
  MarkSlab({&features, 1}, Matrix(1, 1, event_threshold_), ctx, &marks);
  return marks;
}

std::vector<int> EventNetworkFilter::MarkFeaturesTape(
    const Matrix& features) const {
  obs::TraceSpan forward_span(obs::StageNnForwardTape());
  Tape tape;
  auto [emissions_f, emissions_b] = Emissions(&tape, features);
  return ThresholdMarginals(
      crf_.Marginals(emissions_f.value(), emissions_b.value()),
      event_threshold_);
}

TrainResult EventNetworkFilter::Fit(const std::vector<Sample>& samples,
                                    const TrainConfig& config) {
  const TrainResult result = Train(this, samples, config);
  Refreeze();
  return result;
}

BinaryMetrics EventNetworkFilter::Score(
    const std::vector<Sample>& samples) const {
  BinaryMetrics metrics;
  InferenceContext ctx;
  for (const Sample& sample : samples) {
    metrics.Accumulate(MarkFeatures(sample.features, &ctx), sample.labels);
  }
  return metrics;
}

}  // namespace dlacep
