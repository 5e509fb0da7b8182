#include "dlacep/multi_pattern.h"

#include <algorithm>

#include "dlacep/labeler.h"
#include "runtime/source.h"

namespace dlacep {

namespace {

size_t MaxWindow(const std::vector<Pattern>& patterns) {
  size_t w = 0;
  for (const Pattern& pattern : patterns) {
    DLACEP_CHECK(pattern.window().kind == WindowKind::kCount);
    w = std::max(w, pattern.window().count_size());
  }
  return w;
}

std::vector<std::vector<TypeId>> UnionTypeSets(
    const std::vector<Pattern>& patterns) {
  std::vector<std::vector<TypeId>> sets;
  for (const Pattern& pattern : patterns) {
    for (auto& set : pattern.PrimitiveTypeSets()) {
      sets.push_back(std::move(set));
    }
  }
  return sets;
}

}  // namespace

MultiPatternDlacep::MultiPatternDlacep(std::vector<Pattern> patterns,
                                       const EventStream& train_stream,
                                       const DlacepConfig& config)
    : patterns_(std::move(patterns)),
      config_(config),
      max_window_(MaxWindow(patterns_)),
      assembler_(InputAssembler::ForWindow(max_window_, config.mark_size,
                                           config.step_size)) {
  DLACEP_CHECK(!patterns_.empty());
  featurizer_ = std::make_unique<Featurizer>(UnionTypeSets(patterns_),
                                             train_stream);

  // Unified labels: per-pattern datasets over the SAME assembler windows
  // and split seed, OR-ed together (an event is relevant if it serves any
  // pattern — §4.3).
  std::vector<Sample> train;
  std::vector<Sample> test;
  for (size_t p = 0; p < patterns_.size(); ++p) {
    FilterDataset dataset = BuildFilterDataset(
        patterns_[p], train_stream, assembler_, *featurizer_,
        config_.train_fraction, config_.split_seed,
        config_.negation_aware_labeling);
    if (p == 0) {
      train = std::move(dataset.train_event);
      test = std::move(dataset.test_event);
      continue;
    }
    DLACEP_CHECK_EQ(train.size(), dataset.train_event.size());
    for (size_t i = 0; i < train.size(); ++i) {
      for (size_t t = 0; t < train[i].labels.size(); ++t) {
        train[i].labels[t] |= dataset.train_event[i].labels[t];
      }
    }
    DLACEP_CHECK_EQ(test.size(), dataset.test_event.size());
    for (size_t i = 0; i < test.size(); ++i) {
      for (size_t t = 0; t < test[i].labels.size(); ++t) {
        test[i].labels[t] |= dataset.test_event[i].labels[t];
      }
    }
  }

  OversamplePositive(&train, config_.oversample_positive);

  filter_ = std::make_unique<EventNetworkFilter>(
      featurizer_.get(), config_.network, config_.event_threshold);
  filter_->Fit(train, config_.train);
  test_metrics_ = filter_->Score(test);

  registry_ = std::make_unique<serve::QueryRegistry>();
  for (const Pattern& pattern : patterns_) {
    const auto id = registry_->Register(pattern);
    DLACEP_CHECK_MSG(id.ok(), id.status().ToString());
  }
}

MultiPatternResult MultiPatternDlacep::Evaluate(const EventStream& stream) {
  CheckDenseIds(stream);
  // One run over the fixed registry: a shared filtration pass, then the
  // runtime's extraction stage serves every pattern.
  OnlineConfig online = ReplayConfig(config_);
  online.mark_size = assembler_.mark_size();
  online.step_size = assembler_.step_size();
  OnlineDlacep runtime(registry_.get(), filter_.get(), online);
  ReplaySource source(&stream);
  OnlineResult run = runtime.Run(&source);

  MultiPatternResult result;
  result.total_events = stream.size();
  result.marked_events = run.marked_events;
  result.filter_seconds =
      run.stats.elapsed_seconds - run.stats.extract_seconds;
  result.cep_seconds = run.stats.extract_seconds;
  for (serve::QueryResult& query : run.queries) {
    result.per_pattern.push_back(std::move(query.matches));
  }
  return result;
}

}  // namespace dlacep
