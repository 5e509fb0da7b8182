// The shared-inference filter: one StreamFilter that serves every
// registered query.
//
// Per marking call (on whatever shard thread the runtime dispatches
// to; one window or a micro-batch) the filter acquires the current
// registry snapshot, featurizes ONCE, runs ONE trunk forward over the
// batch slab (reusing the caller's InferenceContext scratch arena), and
// decodes per-query marks:
//
//  * with a multi-head trunk (EventNetworkFilter): the CRF marginals
//    are computed once and thresholded once per query — the cheap
//    "per-pattern head" of ISSUE/ROADMAP item 1;
//  * with any other base filter (pass-through, shedding, oracle): the
//    base marks are shared by every query verbatim.
//
// The runtime consumes the UNION of the per-query marks (an event is
// relayed if any query wants it); the per-query attribution is recorded
// in a sink the runtime's extraction stage reads at end of stream. Recording is
// one short mutex hold per window — window granularity, not event
// granularity — and, with the registry's pointer copy, the only lock on
// the marking path.
//
// Equivalence contract (tests/multi_query_runtime_test.cc): in a
// lossless below-capacity run, a query's recorded id set — and hence
// its extracted MatchSet — is byte-identical to an isolated
// single-query OnlineDlacep run over the same stream with the same
// base filter, threshold, and assembler geometry, at every shard and
// thread count. The trunk forward is query-independent, so marks never
// depend on which other queries are registered.

#ifndef DLACEP_SERVE_FILTER_H_
#define DLACEP_SERVE_FILTER_H_

#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/filter.h"
#include "serve/registry.h"

namespace dlacep {
namespace serve {

class ServeFilter : public StreamFilter {
 public:
  /// `registry` and `base` are borrowed. `heads` enables multi-head
  /// decoding and is typically the same object as `base` (a trained
  /// EventNetworkFilter); null means per-query thresholds are ignored
  /// and every query shares the base marks.
  ServeFilter(const QueryRegistry* registry, const StreamFilter* base,
              const EventNetworkFilter* heads = nullptr);

  std::string name() const override { return "serve"; }

  void MarkWindows(std::span<const WindowView> windows, InferenceContext* ctx,
                   std::vector<int>* marks) const override;

  /// Clears the per-query attribution sink (start of a run).
  void ResetRecording();

  /// The ids each query marked, sorted ascending. Queries registered
  /// only for part of the run have partial sets (their windows before
  /// registration were never decoded for them).
  std::map<QueryId, std::vector<EventId>> RecordedMarks() const;

 private:
  /// Adds the ids each query relays in `window` to its recorded set.
  /// `per_query` holds one mark vector per snapshot query, or a single
  /// one that every query shares.
  void Record(const RegistrySnapshot& snapshot,
              std::span<const Event> window,
              std::span<const std::vector<int>> per_query) const;
  std::vector<double> Thresholds(const RegistrySnapshot& snapshot) const;

  const QueryRegistry* registry_;      ///< not owned
  const StreamFilter* base_;           ///< not owned
  const EventNetworkFilter* heads_;    ///< not owned, may be null

  mutable std::mutex mu_;
  mutable std::unordered_map<QueryId, std::unordered_set<EventId>> sink_;
};

}  // namespace serve
}  // namespace dlacep

#endif  // DLACEP_SERVE_FILTER_H_
