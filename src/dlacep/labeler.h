// Training-sample labeling (paper §4.3).
//
// Window samples are labeled by running an exact CEP evaluation over the
// sample span with the original pattern window constraint:
//  * event label 1 — the event participates in at least one full match
//    within the sample;
//  * window label 1 — the sample contains at least one full match.
//
// For patterns with a NEG operator the event labeling is additionally
// negation-aware (paper §4.4): events whose type is referenced under a
// NEG operator are labeled 1 as well, so the trained filter relays them
// and the downstream CEP engine can correctly suppress would-be false
// positives.

#ifndef DLACEP_DLACEP_LABELER_H_
#define DLACEP_DLACEP_LABELER_H_

#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "cep/engine.h"
#include "dlacep/assembler.h"
#include "dlacep/featurizer.h"
#include "nn/trainer.h"
#include "pattern/pattern.h"

namespace dlacep {

/// One labeled sample window.
struct LabeledSample {
  WindowRange range;
  std::vector<int> event_labels;  ///< per event of the sample
  int window_label = 0;
  size_t num_matches = 0;  ///< full matches inside the sample
};

class SampleLabeler {
 public:
  explicit SampleLabeler(const Pattern& pattern);

  /// Labels the events of stream[range] (exact CEP + negation awareness).
  /// Re-entrant: concurrent calls are serialized on the internal engine
  /// (OracleFilter marks from every runtime shard).
  LabeledSample Label(const EventStream& stream, WindowRange range) const;
  /// Label() over a window view (`range` left empty).
  LabeledSample Label(std::span<const Event> window) const;

 private:
  Pattern pattern_;
  std::set<TypeId> negated_types_;
  mutable std::mutex engine_mu_;  ///< guards engine_ (stateful stats)
  mutable std::unique_ptr<CepEngine> engine_;
};

/// The full labeled dataset of one (pattern, stream) pair, split into
/// train and test parts and pre-encoded for the two network kinds.
struct FilterDataset {
  std::vector<LabeledSample> train_raw;
  std::vector<LabeledSample> test_raw;
  std::vector<Sample> train_event;   ///< features + per-event labels
  std::vector<Sample> train_window;  ///< features + single window label
  std::vector<Sample> test_event;
  std::vector<Sample> test_window;
};

/// Assembles, labels, encodes, and splits the stream's sample windows.
/// The split is a random `train_fraction` / rest partition (paper:
/// 70/30). `negation_aware` controls the §4.4 labeling of negated types
/// (disable only for the false-positive ablation).
FilterDataset BuildFilterDataset(const Pattern& pattern,
                                 const EventStream& stream,
                                 const InputAssembler& assembler,
                                 const Featurizer& featurizer,
                                 double train_fraction, uint64_t seed,
                                 bool negation_aware = true);

/// Appends `factor` - 1 extra copies of every sample that carries at
/// least one positive label (DlacepConfig::oversample_positive; 1 = no
/// change). Copies follow the originals in their order.
void OversamplePositive(std::vector<Sample>* samples, size_t factor);

}  // namespace dlacep

#endif  // DLACEP_DLACEP_LABELER_H_
