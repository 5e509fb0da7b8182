// A perfect-knowledge filter that marks exactly the ground-truth labels
// the SampleLabeler produces. It is the upper bound of what any trained
// filter can achieve (recall 1.0 by construction for NEG-free patterns)
// and is used by property tests and ablation benches to separate
// filtering-scheme effects from learning effects.

#ifndef DLACEP_DLACEP_ORACLE_FILTER_H_
#define DLACEP_DLACEP_ORACLE_FILTER_H_

#include "dlacep/filter.h"

namespace dlacep {

class OracleFilter : public StreamFilter {
 public:
  explicit OracleFilter(const Pattern& pattern) : labeler_(pattern) {}

  std::string name() const override { return "oracle"; }

  // Re-entrancy: SampleLabeler::Label serializes access to its internal
  // CEP engine, so concurrent calls from the parallel filtration stage
  // are safe (though the oracle itself won't scale with threads).
  void MarkWindows(std::span<const WindowView> windows, InferenceContext*,
                   std::vector<int>* marks) const override {
    for (size_t w = 0; w < windows.size(); ++w) {
      marks[w] = labeler_.Label(windows[w].events).event_labels;
    }
  }

 private:
  SampleLabeler labeler_;
};

/// A filter that marks everything — DLACEP degenerates to plain ECEP plus
/// assembler overhead. Baseline for ablations.
class PassThroughFilter : public StreamFilter {
 public:
  std::string name() const override { return "pass-through"; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext*,
                   std::vector<int>* marks) const override {
    for (size_t w = 0; w < windows.size(); ++w) {
      marks[w].assign(windows[w].events.size(), 1);
    }
  }
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_ORACLE_FILTER_H_
