#include "dlacep/shedding_filter.h"

namespace dlacep {

RandomSheddingFilter::RandomSheddingFilter(double keep_probability,
                                           uint64_t seed)
    : keep_probability_(keep_probability), seed_(seed) {
  DLACEP_CHECK_GE(keep_probability_, 0.0);
  DLACEP_CHECK_LE(keep_probability_, 1.0);
}

std::vector<int> RandomSheddingFilter::MarkCount(size_t count,
                                                 size_t stream_begin) const {
  // Fresh per-window generator (splitmix-style mix of the window start
  // into the seed) — see the header for why Mark must be stateless.
  Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL *
                   (static_cast<uint64_t>(stream_begin) + 1)));
  std::vector<int> marks(count);
  for (int& m : marks) {
    m = rng.Bernoulli(keep_probability_) ? 1 : 0;
  }
  return marks;
}

void RandomSheddingFilter::MarkWindows(std::span<const WindowView> windows,
                                       InferenceContext*,
                                       std::vector<int>* marks) const {
  for (size_t w = 0; w < windows.size(); ++w) {
    marks[w] = MarkCount(windows[w].events.size(), windows[w].position);
  }
}

TypeSheddingFilter::TypeSheddingFilter(const Pattern& pattern) {
  relevant_.assign(pattern.schema().num_types(), false);
  for (TypeId type : pattern.ReferencedTypes()) {
    if (type >= 0 && static_cast<size_t>(type) < relevant_.size()) {
      relevant_[static_cast<size_t>(type)] = true;
    }
  }
}

void TypeSheddingFilter::MarkWindows(std::span<const WindowView> windows,
                                     InferenceContext*,
                                     std::vector<int>* marks) const {
  for (size_t w = 0; w < windows.size(); ++w) {
    const std::span<const Event> events = windows[w].events;
    marks[w].assign(events.size(), 0);
    for (size_t t = 0; t < events.size(); ++t) {
      const Event& e = events[t];
      if (!e.is_blank() && relevant_[static_cast<size_t>(e.type)]) {
        marks[w][t] = 1;
      }
    }
  }
}

}  // namespace dlacep
