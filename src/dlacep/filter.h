// The stream-filter interface of the filtration-based ACEP system
// (paper §3.1, §4.3): given assembler windows, mark the events that
// should be relayed to the CEP extractor. One batched marking core per
// filter; a single window is a batch of one.

#ifndef DLACEP_DLACEP_FILTER_H_
#define DLACEP_DLACEP_FILTER_H_

#include <span>
#include <string>
#include <vector>

#include "dlacep/labeler.h"
#include "nn/metrics.h"
#include "nn/trainer.h"
#include "stream/stream.h"
#include "stream/window.h"

namespace dlacep {

class InferenceContext;

/// Sentinel mark value: the filter's scores were numerically invalid
/// (NaN/Inf) for this window, so no trustworthy relay decision exists.
/// Network filters return a whole-window vector of kInvalidMark instead
/// of silently thresholding NaN to 0 (which would drop every event). The
/// batch pipeline treats any nonzero mark as relay (conservative); the
/// online runtime's HealthGuard recognizes the sentinel, quarantines the
/// window (relaying it unfiltered), and flips into degraded mode.
inline constexpr int kInvalidMark = -1;

/// One window of a MarkBatchOnline() micro-batch: the events the online
/// runtime materialized for it, its position in the full stream, and
/// the overload threshold boost in force when it closed (windows inside
/// one batch may have closed under different overload levels).
struct OnlineWindow {
  const EventStream* events = nullptr;
  size_t stream_begin = 0;
  double threshold_boost = 0.0;
};

/// One window as a filter's marking core sees it, whichever entry point
/// the caller used.
struct WindowView {
  std::span<const Event> events;
  /// The window's position key, for filters whose marks depend on where
  /// the window sits (random shedding salts by it): range.begin on the
  /// batch entry points; on the online ones, the head event's arrival
  /// id (stream_begin for an empty window). Arrival ids travel with a
  /// detached window, so online marks cannot depend on dispatch order
  /// or shard count; in a lossless run the two keys are equal.
  size_t position = 0;
  /// Overload-control increment added to a network filter's decision
  /// threshold so borderline entities are shed first (0 = normal
  /// operation, and always 0 on the batch entry points).
  double threshold_boost = 0.0;
};

/// A stream filter marks the events of assembler windows for relay.
///
/// Every concrete filter implements exactly one marking core,
/// MarkWindows(), over a batch of WindowViews; B = 1 is a batch like any
/// other. The five public entry points are adapters defined once here:
/// they turn stream ranges or detached online windows into views and
/// call the core. They stay virtual only so that forwarding wrappers
/// (perfbench's TracingFilter) can intercept every call.
///
/// Marking is const and must be re-entrant: the batch pipeline calls it
/// concurrently from its filtration workers and the online runtime from
/// every shard. Implementations may only read shared state (model
/// parameters, featurizer statistics) and must keep any scratch (rngs)
/// local to the call, or serialize access internally. An
/// InferenceContext passed in must not be shared across concurrent
/// calls; nullptr gives the call a local arena.
class StreamFilter {
 public:
  virtual ~StreamFilter() = default;

  virtual std::string name() const = 0;

  /// Per-event 0/1 marks for stream[range] (1 = relay).
  virtual std::vector<int> Mark(const EventStream& stream,
                                WindowRange range) const;

  /// Mark() with a caller-provided reusable scratch arena, so network
  /// filters run allocation-free after the first window.
  virtual std::vector<int> MarkWith(const EventStream& stream,
                                    WindowRange range,
                                    InferenceContext* ctx) const;

  /// Marks one assembler window that the online runtime has
  /// materialized as a standalone stream: `window` holds copies of the
  /// events (with their arrival ids), `stream_begin` is the window's
  /// position in the full stream, and `threshold_boost` the overload
  /// increment in force when it closed.
  virtual std::vector<int> MarkOnline(const EventStream& window,
                                      size_t stream_begin,
                                      InferenceContext* ctx,
                                      double threshold_boost) const;

  /// Marks a micro-batch of stream ranges in one call, writing
  /// windows.size() mark vectors to `marks[0..B)` in window order.
  virtual void MarkBatchWith(const EventStream& stream,
                             std::span<const WindowRange> windows,
                             InferenceContext* ctx,
                             std::vector<int>* marks) const;

  /// Batched twin of MarkOnline for the online runtime's shards.
  virtual void MarkBatchOnline(std::span<const OnlineWindow> windows,
                               InferenceContext* ctx,
                               std::vector<int>* marks) const;

  /// The marking core: writes windows.size() mark vectors to
  /// `marks[0..B)`, one mark per event of each view, in window order.
  /// `ctx` is never null. Network filters featurize the B views into
  /// one batch-major slab and run their trunk once over it (nn/infer.h
  /// ForwardBatch), so marks never depend on how windows were grouped
  /// into batches. Every filter must override this; the default aborts
  /// (only wrappers that override all five entry points may skip it).
  virtual void MarkWindows(std::span<const WindowView> windows,
                           InferenceContext* ctx,
                           std::vector<int>* marks) const;
};

/// A filter backed by a trainable network.
class TrainableFilter : public StreamFilter {
 public:
  /// Trains on pre-encoded samples (see BuildFilterDataset); returns the
  /// trainer's result.
  virtual TrainResult Fit(const std::vector<Sample>& samples,
                          const TrainConfig& config) = 0;

  /// Marks from pre-encoded features (how Score() evaluates the
  /// network): the marking core at B = 1 and the default threshold,
  /// minus featurization. `ctx` may be null (call-local arena).
  virtual std::vector<int> MarkFeatures(const Matrix& features,
                                        InferenceContext* ctx) const = 0;

  /// Golden-reference marks via the autograd tape forward (the training
  /// machinery). Slow — kept so equivalence tests and before/after
  /// benchmarks can pin the fast path against it; must produce the same
  /// thresholded marks as MarkFeatures().
  virtual std::vector<int> MarkFeaturesTape(const Matrix& features) const = 0;

  /// Must be called after mutating parameter values out-of-band
  /// (LoadParameters, snapshot restore) so the filter can repack its
  /// frozen inference weights; Fit() refreezes on its own.
  virtual void OnParamsChanged() {}

  virtual std::vector<Parameter*> Params() = 0;

  /// Evaluates filter quality on pre-encoded samples: the paper's
  /// entity-level P/R/F1 (§4.3) — entities are events for the event
  /// network and windows for the window network.
  virtual BinaryMetrics Score(const std::vector<Sample>& samples) const = 0;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_FILTER_H_
