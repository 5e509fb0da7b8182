// The event-network filter (paper §4.3, Fig 7): stacked BiLSTM feature
// extractor topped with a BI-CRF that labels every event of the input
// window as participating / not participating in a full match. The
// bidirectional CRF is fed by two separate linear emission heads (one per
// chain direction), and decoding takes the per-position argmax of the
// averaged posterior marginals against `event_threshold`.

#ifndef DLACEP_DLACEP_EVENT_FILTER_H_
#define DLACEP_DLACEP_EVENT_FILTER_H_

#include <memory>

#include "dlacep/config.h"
#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "nn/crf.h"
#include "nn/infer.h"

namespace dlacep {

class EventNetworkFilter : public TrainableFilter, public SequenceModel {
 public:
  EventNetworkFilter(const Featurizer* featurizer,
                     const NetworkConfig& network, double event_threshold);

  std::string name() const override { return "event-network"; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext* ctx,
                   std::vector<int>* marks) const override;
  /// Multi-head marking for the serving layer (src/serve): featurize
  /// and run the trunk + CRF-marginal pass once over the batch slab,
  /// then decode each window's shared marginals against every query
  /// threshold plus the window's overload boost. marks[w * Q + q] is
  /// window w under thresholds[q] (Q = thresholds.size()) and equals
  /// MarkWindows() with the filter's threshold set to thresholds[q] —
  /// the trunk forward is query-independent. `ctx` must not be null.
  void MarkWindowsMultiHead(std::span<const WindowView> windows,
                            InferenceContext* ctx,
                            std::span<const double> thresholds,
                            std::vector<int>* marks) const;
  double event_threshold() const { return event_threshold_; }
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
  /// The slab core: stacks the windows' features, runs the trunk once,
  /// and decodes window w against row w of `thresholds` (B×H), writing
  /// marks[w * H + h].
  void MarkSlab(std::span<const Matrix> features, const Matrix& thresholds,
                InferenceContext* ctx, std::vector<int>* marks) const;
  void Refreeze();

  const Featurizer* featurizer_;  ///< not owned
  double event_threshold_;
  Rng init_rng_;  ///< declared before the layers it initializes
  StackedBiLstm stack_;
  Dense head_fwd_;
  Dense head_bwd_;
  BiCrf crf_;
  /// Forward-only weights repacked at freeze time (constructor, end of
  /// Fit, OnParamsChanged). Read-only during Mark — shared across the
  /// pipeline's worker threads.
  struct FrozenModel {
    StackedBiLstmInfer stack;
    DenseInfer head_fwd;
    DenseInfer head_bwd;
  } frozen_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_EVENT_FILTER_H_
