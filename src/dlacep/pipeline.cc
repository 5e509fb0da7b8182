#include "dlacep/pipeline.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "dlacep/event_filter.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/window_filter.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

namespace {

InputAssembler MakeAssembler(const Pattern& pattern,
                             const DlacepConfig& config) {
  const size_t w = pattern.window().count_size();
  const size_t mark = config.mark_size != 0 ? config.mark_size : 2 * w;
  const size_t step = config.step_size != 0 ? config.step_size : w;
  return InputAssembler(mark, step);
}

}  // namespace

DlacepPipeline::DlacepPipeline(const Pattern& pattern,
                               std::unique_ptr<StreamFilter> filter,
                               const DlacepConfig& config)
    : pattern_(pattern),
      config_(config),
      assembler_(MakeAssembler(pattern, config)),
      filter_(std::move(filter)),
      extractor_(pattern_) {
  DLACEP_CHECK(filter_ != nullptr);
  DLACEP_CHECK(pattern_.window().kind == WindowKind::kCount);
}

ThreadPool* DlacepPipeline::FiltrationPool() {
  const size_t workers = ResolveNumThreads(config_.num_threads);
  if (workers <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(workers);
  return pool_.get();
}

Filtration RunFiltration(
    const StreamFilter& filter, const EventStream& stream,
    std::span<const WindowRange> windows, size_t batch_size,
    ThreadPool* pool,
    std::vector<std::unique_ptr<InferenceContext>>* contexts) {
  // Every assembler window is an independent forward-only inference
  // (filters are const/re-entrant), so chunks of consecutive windows
  // fan out over the pool into per-window mark buffers. Each worker
  // gets its own InferenceContext scratch arena, so the network filters
  // reuse their activation buffers across windows.
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  while (contexts->size() < workers) {
    contexts->push_back(std::make_unique<InferenceContext>());
  }
  const size_t chunk = std::max<size_t>(batch_size, 1);
  std::vector<std::vector<int>> window_marks(windows.size());
  const size_t num_chunks = (windows.size() + chunk - 1) / chunk;
  ParallelForWorker(pool, num_chunks, [&](size_t worker, size_t ci) {
    obs::TraceSpan mark_span(obs::StageWindowMark());
    const size_t begin = ci * chunk;
    const size_t count = std::min(chunk, windows.size() - begin);
    filter.MarkBatchWith(stream, windows.subspan(begin, count),
                         (*contexts)[worker].get(),
                         window_marks.data() + begin);
  });

  // Deterministic merge in window order: the concatenated mark sequence
  // is the same whichever worker finished first. Deduplicated marked
  // events are counted here, over stream positions, so that blanks the
  // extractor later drops still count as relayed (the paper's Ψ
  // measures filtration, not extraction).
  obs::TraceSpan merge_span(obs::StageWindowMerge());
  Filtration filtration;
  std::vector<uint8_t> seen(stream.size(), 0);
  for (size_t i = 0; i < windows.size(); ++i) {
    const std::vector<int>& marks = window_marks[i];
    DLACEP_CHECK_EQ(marks.size(), windows[i].size());
    for (size_t t = 0; t < marks.size(); ++t) {
      if (marks[t] == 0) continue;
      const size_t pos = windows[i].begin + t;
      filtration.marked_ids.push_back(stream[pos].id);
      if (!seen[pos]) {
        seen[pos] = 1;
        // First covering window only: with the default overlapping
        // geometry (mark = 2w, step = w) each position would otherwise
        // be relayed once per covering window, roughly doubling the
        // extractor's input. The extractor sorts by id and drops
        // duplicates before evaluating (extractor.cc), so feeding it
        // deduplicated events changes neither the match set nor the
        // engine work counters — only the wasted copies
        // (tests/dlacep_pipeline_test.cc pins this).
        filtration.relayed.push_back(&stream[pos]);
      }
    }
  }
  filtration.marked_events = filtration.relayed.size();
  return filtration;
}

PipelineResult DlacepPipeline::Evaluate(const EventStream& stream) {
  PipelineResult result;
  result.total_events = stream.size();

  // filter_seconds stays wall clock: it brackets the whole fan-out and
  // the merge.
  Stopwatch filter_watch;
  const std::vector<WindowRange> windows = assembler_.Windows(stream.size());
  Filtration filtration = RunFiltration(*filter_, stream, windows,
                                        config_.batch_size, FiltrationPool(),
                                        &contexts_);
  result.marked_events = filtration.marked_events;
  result.marked_ids = std::move(filtration.marked_ids);
  result.filter_seconds = filter_watch.ElapsedSeconds();

  // Extraction on the filtered stream.
  extractor_.ResetStats();
  Stopwatch cep_watch;
  const Status status =
      extractor_.Extract(std::move(filtration.relayed), &result.matches);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  result.cep_seconds = cep_watch.ElapsedSeconds();
  obs::StageCepEval()->Observe(result.cep_seconds);
  result.cep_stats = extractor_.stats();
  return result;
}

ComparisonResult DlacepPipeline::CompareWithEcep(const EventStream& stream,
                                                 EngineKind baseline) {
  ComparisonResult comparison;
  comparison.dlacep = Evaluate(stream);

  auto engine = CreateEngine(baseline, pattern_);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  Stopwatch watch;
  const Status status = engine.value()->Evaluate(
      std::span<const Event>(stream.events().data(), stream.size()),
      &comparison.exact_matches);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  comparison.ecep_seconds = watch.ElapsedSeconds();
  comparison.ecep_stats = engine.value()->stats();
  comparison.quality =
      CompareMatchSets(comparison.exact_matches, comparison.dlacep.matches);
  return comparison;
}

const char* FilterKindName(FilterKind kind) {
  switch (kind) {
    case FilterKind::kEventNetwork: return "event-network";
    case FilterKind::kWindowNetwork: return "window-network";
    case FilterKind::kOracle: return "oracle";
    case FilterKind::kPassThrough: return "pass-through";
  }
  return "?";
}

BuiltDlacep BuildDlacep(const Pattern& pattern,
                        const EventStream& train_stream, FilterKind kind,
                        const DlacepConfig& config) {
  BuiltDlacep built;
  built.featurizer = std::make_unique<Featurizer>(pattern, train_stream);

  std::unique_ptr<StreamFilter> filter;
  if (kind == FilterKind::kOracle) {
    filter = std::make_unique<OracleFilter>(pattern);
  } else if (kind == FilterKind::kPassThrough) {
    filter = std::make_unique<PassThroughFilter>();
  } else {
    const InputAssembler assembler = MakeAssembler(pattern, config);
    Stopwatch label_watch;
    FilterDataset dataset = BuildFilterDataset(
        pattern, train_stream, assembler, *built.featurizer,
        config.train_fraction, config.split_seed,
        config.negation_aware_labeling);
    built.label_seconds = label_watch.ElapsedSeconds();

    if (config.oversample_positive > 1) {
      auto oversample = [&](std::vector<Sample>* samples) {
        const size_t original = samples->size();
        for (size_t i = 0; i < original; ++i) {
          // Copy: push_back below may reallocate and invalidate
          // references into the vector.
          const Sample sample = (*samples)[i];
          bool positive = false;
          for (int label : sample.labels) positive |= label != 0;
          if (!positive) continue;
          for (size_t r = 1; r < config.oversample_positive; ++r) {
            samples->push_back(sample);
          }
        }
      };
      oversample(&dataset.train_event);
      oversample(&dataset.train_window);
    }

    Stopwatch train_watch;
    if (kind == FilterKind::kEventNetwork) {
      auto event_filter = std::make_unique<EventNetworkFilter>(
          built.featurizer.get(), config.network, config.event_threshold);
      built.train_result =
          event_filter->Fit(dataset.train_event, config.train);
      built.test_metrics = event_filter->Score(dataset.test_event);
      filter = std::move(event_filter);
    } else {
      auto window_filter = std::make_unique<WindowNetworkFilter>(
          built.featurizer.get(), config.network, config.window_threshold);
      built.train_result =
          window_filter->Fit(dataset.train_window, config.train);
      built.test_metrics = window_filter->Score(dataset.test_window);
      filter = std::move(window_filter);
    }
    built.train_seconds = train_watch.ElapsedSeconds();
    DLACEP_LOG(Debug) << FilterKindName(kind) << " trained "
                      << built.train_result.epochs_run << " epochs, loss "
                      << built.train_result.final_loss << ", test F1 "
                      << built.test_metrics.f1();
  }
  built.pipeline =
      std::make_unique<DlacepPipeline>(pattern, std::move(filter), config);
  return built;
}

}  // namespace dlacep
