// TCN-backed event filter — the alternative architecture the paper's
// preliminary experiments evaluated and rejected in favour of BiLSTM
// (§4.1: "BiLSTM was empirically shown to be superior to other
// approaches such as TCN"). Identical head (two linear emission layers
// + BI-CRF) and API to EventNetworkFilter; only the sequence backbone
// differs. bench_ablation_backbone reproduces the comparison.

#ifndef DLACEP_DLACEP_TCN_FILTER_H_
#define DLACEP_DLACEP_TCN_FILTER_H_

#include "dlacep/config.h"
#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "nn/crf.h"
#include "nn/infer.h"

namespace dlacep {

class TcnEventFilter : public TrainableFilter, public SequenceModel {
 public:
  TcnEventFilter(const Featurizer* featurizer,
                 const NetworkConfig& network, double event_threshold,
                 size_t kernel = 3);

  std::string name() const override { return "tcn-event-network"; }

  /// Same marking core as the BiLSTM event filter: featurize, one TCN
  /// trunk pass over the stacked slab (loop-level fusion — see
  /// TcnInfer::ForwardBatch), then the shared BI-CRF decode with each
  /// window's overload boost added to the threshold.
  void MarkWindows(std::span<const WindowView> windows, InferenceContext* ctx,
                   std::vector<int>* marks) const override;
  std::vector<int> MarkFeatures(const Matrix& features,
                                InferenceContext* ctx) const override;
  std::vector<int> MarkFeaturesTape(const Matrix& features) const override;
  void OnParamsChanged() override;

  TrainResult Fit(const std::vector<Sample>& samples,
                  const TrainConfig& config) override;

  BinaryMetrics Score(const std::vector<Sample>& samples) const override;

  // SequenceModel:
  Var Loss(Tape* tape, const Sample& sample) override;
  std::vector<Parameter*> Params() override;

 private:
  std::pair<Var, Var> Emissions(Tape* tape, const Matrix& features) const;
  /// Slab core; see EventNetworkFilter::MarkSlab.
  void MarkSlab(std::span<const Matrix> features, const Matrix& thresholds,
                InferenceContext* ctx, std::vector<int>* marks) const;
  void Refreeze();

  const Featurizer* featurizer_;  ///< not owned
  double event_threshold_;
  Rng init_rng_;
  Tcn backbone_;
  Dense head_fwd_;
  Dense head_bwd_;
  BiCrf crf_;
  /// Forward-only weights repacked at freeze time (constructor, end of
  /// Fit, OnParamsChanged); read-only during Mark.
  struct FrozenModel {
    TcnInfer backbone;
    DenseInfer head_fwd;
    DenseInfer head_bwd;
  } frozen_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_TCN_FILTER_H_
