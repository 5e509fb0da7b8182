// Load-shedding baseline filters (paper §6 "Load shedding").
//
// Load shedding drops events (or partial matches) to meet a resource
// budget, classically at random or by simple per-type utilities. These
// filters plug into the DLACEP pipeline in place of the learned network,
// giving an apples-to-apples baseline: at the SAME filtering ratio, how
// many matches does a non-learned policy lose compared to the trained
// filter? (The paper positions DLACEP as a conceptual shift away from
// such emergency shedding.)

#ifndef DLACEP_DLACEP_SHEDDING_FILTER_H_
#define DLACEP_DLACEP_SHEDDING_FILTER_H_

#include <vector>

#include "common/rng.h"
#include "dlacep/filter.h"
#include "pattern/pattern.h"

namespace dlacep {

/// Uniform random shedding: every event is relayed with probability
/// `keep_probability`, regardless of content. The marks of a window are
/// a pure function of (seed, window position key), so marking is
/// re-entrant and its output does not depend on window evaluation order
/// — required by the parallel filtration stage and handy for
/// reproducibility.
class RandomSheddingFilter : public StreamFilter {
 public:
  RandomSheddingFilter(double keep_probability, uint64_t seed);

  std::string name() const override { return "random-shedding"; }

  /// Salts each window by WindowView::position: range.begin on the batch
  /// entry points, the head arrival id (a shard-stable key carried by
  /// the detached window itself) on the online ones — never by the
  /// stream_begin an online caller passes, so shed decisions cannot
  /// depend on dispatch order or shard count. The two salts agree
  /// whenever ids equal stream positions (every lossless run).
  void MarkWindows(std::span<const WindowView> windows, InferenceContext* ctx,
                   std::vector<int>* marks) const override;

  /// The pure marking core: marks for a window of `count` events whose
  /// position key is `stream_begin`.
  std::vector<int> MarkCount(size_t count, size_t stream_begin) const;

 private:
  double keep_probability_;
  uint64_t seed_;
};

/// Type-aware shedding: events whose type the pattern references are
/// always relayed; all other events are dropped. The cheapest
/// content-aware policy — it achieves exactly the filtering ratio of the
/// pattern-irrelevant traffic and loses no matches, but cannot filter
/// within the relevant types (where DLACEP's gains come from).
class TypeSheddingFilter : public StreamFilter {
 public:
  explicit TypeSheddingFilter(const Pattern& pattern);

  std::string name() const override { return "type-shedding"; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext* ctx,
                   std::vector<int>* marks) const override;

 private:
  std::vector<bool> relevant_;  ///< indexed by type id
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_SHEDDING_FILTER_H_
