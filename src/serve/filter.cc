#include "serve/filter.h"

#include <algorithm>

#include "common/logging.h"

namespace dlacep {
namespace serve {

ServeFilter::ServeFilter(const QueryRegistry* registry,
                         const StreamFilter* base,
                         const EventNetworkFilter* heads)
    : registry_(registry), base_(base), heads_(heads) {
  DLACEP_CHECK(registry_ != nullptr);
  DLACEP_CHECK(base_ != nullptr || heads_ != nullptr);
  if (base_ == nullptr) base_ = heads_;
}

void ServeFilter::ResetRecording() {
  std::lock_guard<std::mutex> lock(mu_);
  sink_.clear();
}

std::map<QueryId, std::vector<EventId>> ServeFilter::RecordedMarks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<QueryId, std::vector<EventId>> out;
  for (const auto& [id, ids] : sink_) {
    std::vector<EventId> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    out.emplace(id, std::move(sorted));
  }
  return out;
}

std::vector<double> ServeFilter::Thresholds(
    const RegistrySnapshot& snapshot) const {
  std::vector<double> thresholds;
  thresholds.reserve(snapshot.queries.size());
  for (const QueryEntry& entry : snapshot.queries) {
    thresholds.push_back(entry.threshold >= 0.0 ? entry.threshold
                                                : heads_->event_threshold());
  }
  return thresholds;
}

void ServeFilter::Record(const RegistrySnapshot& snapshot,
                         std::span<const Event> window,
                         std::span<const std::vector<int>> per_query) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t q = 0; q < snapshot.queries.size(); ++q) {
    std::unordered_set<EventId>& ids = sink_[snapshot.queries[q].id];
    const std::vector<int>& marks = per_query[per_query.size() == 1 ? 0 : q];
    for (size_t t = 0; t < marks.size(); ++t) {
      if (marks[t] == 1) ids.insert(window[t].id);
    }
  }
}

void ServeFilter::MarkWindows(std::span<const WindowView> windows,
                              InferenceContext* ctx,
                              std::vector<int>* marks) const {
  const auto snapshot = registry_->Acquire();
  const size_t num_queries = snapshot->queries.size();
  if (num_queries == 0) {
    for (size_t w = 0; w < windows.size(); ++w) {
      marks[w].assign(windows[w].events.size(), 0);
    }
    return;
  }

  if (heads_ == nullptr) {
    // Single-head base filter: every query shares the base marks.
    base_->MarkWindows(windows, ctx, marks);
    for (size_t w = 0; w < windows.size(); ++w) {
      if (!marks[w].empty() && marks[w][0] == kInvalidMark) continue;
      Record(*snapshot, windows[w].events, {&marks[w], 1});
    }
    return;
  }

  // One trunk slab for the whole batch, then per-window per-query
  // decodes off the shared marginals.
  std::vector<std::vector<int>> per_query(windows.size() * num_queries);
  heads_->MarkWindowsMultiHead(windows, ctx, Thresholds(*snapshot),
                               per_query.data());
  for (size_t w = 0; w < windows.size(); ++w) {
    const size_t n = windows[w].events.size();
    const std::span<const std::vector<int>> window_marks(
        &per_query[w * num_queries], num_queries);
    // A non-finite marginal poisons every head's decode identically;
    // propagate the whole-window sentinel for the health guard.
    if (n > 0 && window_marks[0][0] == kInvalidMark) {
      marks[w].assign(n, kInvalidMark);
      continue;
    }
    Record(*snapshot, windows[w].events, window_marks);
    marks[w].assign(n, 0);
    for (const std::vector<int>& query_marks : window_marks) {
      for (size_t t = 0; t < n; ++t) marks[w][t] |= query_marks[t] == 1;
    }
  }
}

}  // namespace serve
}  // namespace dlacep
