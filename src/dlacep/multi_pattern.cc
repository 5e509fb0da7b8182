#include "dlacep/multi_pattern.h"

#include <algorithm>

#include "common/timer.h"
#include "dlacep/extractor.h"
#include "dlacep/labeler.h"

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
      max_window_(MaxWindow(patterns_)) {
  DLACEP_CHECK(!patterns_.empty());
  featurizer_ = std::make_unique<Featurizer>(UnionTypeSets(patterns_),
                                             train_stream);

  // Unified labels: per-pattern datasets over the SAME assembler windows
  // and split seed, OR-ed together (an event is relevant if it serves any
  // pattern — §4.3).
  const size_t mark =
      config_.mark_size != 0 ? config_.mark_size : 2 * max_window_;
  const size_t step =
      config_.step_size != 0 ? config_.step_size : max_window_;
  const InputAssembler assembler(mark, step);

  std::vector<Sample> train;
  std::vector<Sample> test;
  for (size_t p = 0; p < patterns_.size(); ++p) {
    FilterDataset dataset = BuildFilterDataset(
        patterns_[p], train_stream, assembler, *featurizer_,
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

  if (config_.oversample_positive > 1) {
    const size_t original = train.size();
    for (size_t i = 0; i < original; ++i) {
      const Sample sample = train[i];  // copy: push_back may reallocate
      bool positive = false;
      for (int label : sample.labels) positive |= label != 0;
      if (!positive) continue;
      for (size_t r = 1; r < config_.oversample_positive; ++r) {
        train.push_back(sample);
      }
    }
  }

  filter_ = std::make_unique<EventNetworkFilter>(
      featurizer_.get(), config_.network, config_.event_threshold);
  filter_->Fit(train, config_.train);
  test_metrics_ = filter_->Score(test);
}

MultiPatternResult MultiPatternDlacep::Evaluate(const EventStream& stream) {
  MultiPatternResult result;
  result.total_events = stream.size();

  const size_t mark =
      config_.mark_size != 0 ? config_.mark_size : 2 * max_window_;
  const size_t step =
      config_.step_size != 0 ? config_.step_size : max_window_;
  const InputAssembler assembler(mark, step);

  // The pipeline's filtration stage, inline (one scratch arena): the
  // same chunked MarkBatchWith calls, the same window-order merge, and
  // the same deduplicated relay count, blanks included.
  Stopwatch filter_watch;
  std::vector<std::unique_ptr<InferenceContext>> contexts;
  const Filtration filtration =
      RunFiltration(*filter_, stream, assembler.Windows(stream.size()),
                    config_.batch_size, /*pool=*/nullptr, &contexts);
  result.marked_events = filtration.marked_events;
  result.filter_seconds = filter_watch.ElapsedSeconds();

  Stopwatch cep_watch;
  result.per_pattern.resize(patterns_.size());
  for (size_t p = 0; p < patterns_.size(); ++p) {
    CepExtractor extractor(patterns_[p]);
    const Status status =
        extractor.Extract(filtration.relayed, &result.per_pattern[p]);
    DLACEP_CHECK_MSG(status.ok(), status.ToString());
  }
  result.cep_seconds = cep_watch.ElapsedSeconds();
  return result;
}

}  // namespace dlacep
