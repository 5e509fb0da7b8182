#include "dlacep/pipeline.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "dlacep/event_filter.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/window_filter.h"

namespace dlacep {

namespace {

InputAssembler MakeAssembler(const Pattern& pattern,
                             const DlacepConfig& config) {
  return InputAssembler::ForWindow(pattern.window().count_size(),
                                   config.mark_size, config.step_size);
}

}  // namespace

OnlineConfig ReplayConfig(const DlacepConfig& config) {
  OnlineConfig online;
  online.num_shards = config.num_threads;
  online.batch_size = std::max<size_t>(config.batch_size, 1);
  online.max_windows_in_flight =
      2 * ResolveNumThreads(config.num_threads) * online.batch_size + 2;
  online.mark_size = config.mark_size;
  online.step_size = config.step_size;
  online.overload.enabled = false;
  online.health.enabled = false;
  return online;
}

DlacepPipeline::DlacepPipeline(const Pattern& pattern,
                               std::unique_ptr<StreamFilter> filter,
                               const DlacepConfig& config)
    : pattern_(pattern),
      assembler_(MakeAssembler(pattern, config)),
      filter_(std::move(filter)),
      online_(pattern_, filter_.get(), ReplayConfig(config)) {}

void CheckDenseIds(const EventStream& stream) {
  if (stream.empty()) return;
  DLACEP_CHECK_EQ(stream.events().front().id, 0u);
  DLACEP_CHECK_EQ(stream.events().back().id, stream.size() - 1);
}

PipelineResult DlacepPipeline::Evaluate(const EventStream& stream) {
  CheckDenseIds(stream);
  ReplaySource source(&stream);
  OnlineResult run = online_.Run(&source);
  PipelineResult result;
  result.matches = std::move(run.matches);
  result.total_events = stream.size();
  result.marked_events = run.marked_events;
  result.marked_ids = std::move(run.marked_ids);
  result.filter_seconds =
      run.stats.elapsed_seconds - run.stats.extract_seconds;
  result.cep_seconds = run.stats.extract_seconds;
  result.cep_stats = run.cep_stats;
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

    OversamplePositive(&dataset.train_event, config.oversample_positive);
    OversamplePositive(&dataset.train_window, config.oversample_positive);

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
