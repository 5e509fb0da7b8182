#include "dlacep/filter.h"

#include "nn/infer.h"

namespace dlacep {

namespace {

void MarkViews(const StreamFilter& filter, std::span<const WindowView> views,
               InferenceContext* ctx, std::vector<int>* marks) {
  if (views.empty()) return;
  if (ctx != nullptr) {
    filter.MarkWindows(views, ctx, marks);
    return;
  }
  InferenceContext local;
  filter.MarkWindows(views, &local, marks);
}

}  // namespace

std::vector<int> StreamFilter::Mark(const EventStream& stream,
                                    WindowRange range) const {
  return MarkWith(stream, range, nullptr);
}

std::vector<int> StreamFilter::MarkWith(const EventStream& stream,
                                        WindowRange range,
                                        InferenceContext* ctx) const {
  std::vector<int> marks;
  MarkBatchWith(stream, std::span<const WindowRange>(&range, 1), ctx, &marks);
  return marks;
}

std::vector<int> StreamFilter::MarkOnline(const EventStream& window,
                                          size_t stream_begin,
                                          InferenceContext* ctx,
                                          double threshold_boost) const {
  const OnlineWindow online{&window, stream_begin, threshold_boost};
  std::vector<int> marks;
  MarkBatchOnline(std::span<const OnlineWindow>(&online, 1), ctx, &marks);
  return marks;
}

void StreamFilter::MarkBatchWith(const EventStream& stream,
                                 std::span<const WindowRange> windows,
                                 InferenceContext* ctx,
                                 std::vector<int>* marks) const {
  std::vector<WindowView> views;
  views.reserve(windows.size());
  for (const WindowRange& range : windows) {
    views.push_back(WindowView{stream.View(range.begin, range.size()),
                               range.begin, 0.0});
  }
  MarkViews(*this, views, ctx, marks);
}

void StreamFilter::MarkBatchOnline(std::span<const OnlineWindow> windows,
                                   InferenceContext* ctx,
                                   std::vector<int>* marks) const {
  std::vector<WindowView> views;
  views.reserve(windows.size());
  for (const OnlineWindow& w : windows) {
    const EventStream& events = *w.events;
    const size_t position = events.size() > 0
                                ? static_cast<size_t>(events[0].id)
                                : w.stream_begin;
    views.push_back(WindowView{events.View(0, events.size()), position,
                               w.threshold_boost});
  }
  MarkViews(*this, views, ctx, marks);
}

void StreamFilter::MarkWindows(std::span<const WindowView>, InferenceContext*,
                               std::vector<int>*) const {
  DLACEP_CHECK_MSG(false, name() + " implements no marking core");
}

}  // namespace dlacep
