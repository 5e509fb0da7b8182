// The benchmark's view into each layer, taken from outside the program:
// a StreamSource wrapper (the stream layer's boundary, with optional
// open-loop pacing) and a StreamFilter wrapper (the dlacep layer's
// boundary) that forward every entry point unchanged and only record
// times. Spans go to an in-memory SpanLog that is written out after the
// run; nothing here reaches inside src/.

#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <sys/prctl.h>

#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dlacep/filter.h"
#include "measure.h"
#include "runtime/source.h"

namespace perfbench {

/// One traced interval. `window` is the last-event index of the window
/// a dlacep.mark span marked (the id that links a window's spans), -1
/// for spans that belong to no window.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  size_t thread = 0;
  long long window = -1;
  size_t windows = 0;  ///< windows marked by this call (dlacep.mark)
};

/// Spans kept in memory while a traced call runs. Add() is a no-op
/// unless enabled, so untraced calls pay one branch per boundary.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Add(const char* name, double start, double end, long long window = -1,
           size_t windows = 0) {
    if (!enabled_) return;
    const size_t thread = std::hash<std::thread::id>()(
        std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, thread, window, windows});
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(spans_, {});
  }

 private:
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Replays a borrowed stream through the runtime's ReplaySource and
/// records, per event, its due time: the open-loop schedule slot when
/// `rate` > 0, else the moment it was handed out. Also records how late
/// each Read() began against the schedule, the time the caller spent
/// between one Read() returning and the next (a producer blocked on a
/// full ingest queue), and the time spent inside the inner Read().
class BenchSource : public dlacep::StreamSource {
 public:
  BenchSource(const dlacep::EventStream* stream, double rate, SpanLog* spans)
      : inner_(stream), rate_(rate), spans_(spans),
        due_(stream->size(), 0.0) {
    if (rate_ > 0.0) lateness_.reserve(stream->size());
  }

  std::shared_ptr<const dlacep::Schema> schema() const override {
    return inner_.schema();
  }

  dlacep::Status Read(dlacep::Event* out) override {
    const double call = Now();
    if (next_ == 0) {
      // The schedule starts at the first Read. When paced, tighten this
      // thread's timer slack so sleep_until wakes within microseconds of
      // a slot.
      start_ = call;
      if (rate_ > 0.0) prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    } else {
      blocked_seconds_ += call - last_return_;
    }
    double due = call;
    if (rate_ > 0.0 && next_ < due_.size()) {
      due = DueTime(start_, rate_, next_);
      lateness_.push_back(Lateness(call, due));
      if (call < due) {
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(due))));
      }
    }
    const double begin = rate_ > 0.0 ? Now() : call;
    const dlacep::Status status = inner_.Read(out);
    last_return_ = Now();
    read_seconds_ += last_return_ - begin;
    if (status.ok()) {
      spans_->Add("stream.read", begin, last_return_,
                  static_cast<long long>(next_));
      if (next_ < due_.size()) due_[next_] = due;
      ++next_;
    }
    return status;
  }

  size_t Skip(size_t n) override { return inner_.Skip(n); }

  /// Due time of event i (valid once it has been read).
  double due(size_t i) const { return due_[i]; }
  size_t events_read() const { return next_; }
  const std::vector<double>& lateness() const { return lateness_; }
  double blocked_seconds() const { return blocked_seconds_; }
  double read_seconds() const { return read_seconds_; }

 private:
  dlacep::ReplaySource inner_;
  double rate_;
  SpanLog* spans_;
  std::vector<double> due_;
  std::vector<double> lateness_;
  size_t next_ = 0;
  double start_ = 0.0;
  double last_return_ = 0.0;
  double blocked_seconds_ = 0.0;
  double read_seconds_ = 0.0;
};

/// Non-owning StreamFilter that forwards all five marking entry points
/// to the wrapped filter (so arena reuse and batched trunks stay on the
/// same path) and records, per call, its busy time and the completion
/// time of every window it marked, keyed by the window's last-event
/// index in the full stream.
class TracingFilter : public dlacep::StreamFilter {
 public:
  explicit TracingFilter(const dlacep::StreamFilter* inner)
      : inner_(inner) {}

  /// Clears the per-call record before a new Run()/Evaluate() and
  /// directs its spans to `spans`.
  void Reset(SpanLog* spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_ = spans;
    done_.clear();
    windows_ = 0;
    busy_seconds_ = 0.0;
  }

  std::string name() const override { return inner_->name(); }

  std::vector<int> Mark(const dlacep::EventStream& stream,
                        dlacep::WindowRange range) const override {
    const double start = Now();
    std::vector<int> marks = inner_->Mark(stream, range);
    Finish(start, {LastIndex(range.begin, range.size())});
    return marks;
  }

  std::vector<int> MarkWith(const dlacep::EventStream& stream,
                            dlacep::WindowRange range,
                            dlacep::InferenceContext* ctx) const override {
    const double start = Now();
    std::vector<int> marks = inner_->MarkWith(stream, range, ctx);
    Finish(start, {LastIndex(range.begin, range.size())});
    return marks;
  }

  void MarkBatchWith(const dlacep::EventStream& stream,
                     std::span<const dlacep::WindowRange> windows,
                     dlacep::InferenceContext* ctx,
                     std::vector<int>* marks) const override {
    const double start = Now();
    inner_->MarkBatchWith(stream, windows, ctx, marks);
    std::vector<long long> last;
    for (const dlacep::WindowRange& w : windows) {
      last.push_back(LastIndex(w.begin, w.size()));
    }
    Finish(start, last);
  }

  std::vector<int> MarkOnline(const dlacep::EventStream& window,
                              size_t stream_begin,
                              dlacep::InferenceContext* ctx,
                              double threshold_boost) const override {
    const double start = Now();
    std::vector<int> marks =
        inner_->MarkOnline(window, stream_begin, ctx, threshold_boost);
    Finish(start, {LastIndex(stream_begin, window.size())});
    return marks;
  }

  void MarkBatchOnline(std::span<const dlacep::OnlineWindow> windows,
                       dlacep::InferenceContext* ctx,
                       std::vector<int>* marks) const override {
    const double start = Now();
    inner_->MarkBatchOnline(windows, ctx, marks);
    std::vector<long long> last;
    for (const dlacep::OnlineWindow& w : windows) {
      last.push_back(LastIndex(w.stream_begin, w.events->size()));
    }
    Finish(start, last);
  }

  /// (last-event index, completion time) per marked window, in call
  /// completion order.
  std::vector<std::pair<long long, double>> done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }
  uint64_t windows() const { return windows_; }
  double busy_seconds() const { return busy_seconds_; }

 private:
  static long long LastIndex(size_t begin, size_t size) {
    return static_cast<long long>(begin + size) - 1;
  }

  void Finish(double start, const std::vector<long long>& last) const {
    const double end = Now();
    if (spans_ != nullptr) {
      spans_->Add("dlacep.mark", start, end,
                  last.empty() ? -1 : last.back(), last.size());
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const long long index : last) done_.emplace_back(index, end);
    windows_ += last.size();
    busy_seconds_ += end - start;
  }

  const dlacep::StreamFilter* inner_;
  SpanLog* spans_ = nullptr;
  mutable std::mutex mu_;
  mutable std::vector<std::pair<long long, double>> done_;
  mutable uint64_t windows_ = 0;
  mutable double busy_seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
