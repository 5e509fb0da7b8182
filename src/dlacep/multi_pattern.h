// Multi-pattern monitoring (paper §4.3).
//
// "When there is more than one monitored pattern, we can train the
// network with samples labeled according to the monitoring requirement,
// thus semantically unifying the patterns into one": an event is labeled
// 1 iff it participates in a full match of ANY monitored pattern; a
// window is applicable iff it contains a match of any pattern. One
// filter network serves all patterns; the CEP extractor then runs each
// pattern's exact engine over the shared filtered stream.
//
// All patterns must share the schema and use count windows; the
// assembler is sized by the largest pattern window. Evaluate() is one
// run of the online runtime over a fixed registry of the patterns: one
// filtration pass, then the runtime's extraction stage evaluates every
// pattern over the relayed events through the shared plan (structural
// twins run once) — the serve path without per-query attribution.

#ifndef DLACEP_DLACEP_MULTI_PATTERN_H_
#define DLACEP_DLACEP_MULTI_PATTERN_H_

#include <memory>
#include <vector>

#include "dlacep/config.h"
#include "dlacep/event_filter.h"
#include "dlacep/pipeline.h"
#include "serve/registry.h"

namespace dlacep {

/// Result of a multi-pattern evaluation: one match set per pattern, in
/// input order, plus shared filtering statistics.
struct MultiPatternResult {
  std::vector<MatchSet> per_pattern;
  size_t total_events = 0;
  /// Deduplicated relayed events, blanks included (see PipelineResult).
  size_t marked_events = 0;
  double filter_seconds = 0.0;
  double cep_seconds = 0.0;

  double filtering_ratio() const {
    return total_events == 0
               ? 0.0
               : 1.0 - static_cast<double>(marked_events) /
                           static_cast<double>(total_events);
  }
};

/// A DLACEP system monitoring several patterns with one shared filter.
class MultiPatternDlacep {
 public:
  /// Builds featurizer + unified labels + event network from
  /// `train_stream`, and registers the patterns for extraction.
  MultiPatternDlacep(std::vector<Pattern> patterns,
                     const EventStream& train_stream,
                     const DlacepConfig& config);

  /// Filters `stream` once and extracts every pattern's matches from
  /// the relayed events. Dense ids required, as in
  /// DlacepPipeline::Evaluate.
  MultiPatternResult Evaluate(const EventStream& stream);

  const BinaryMetrics& test_metrics() const { return test_metrics_; }
  size_t num_patterns() const { return patterns_.size(); }
  const std::vector<Pattern>& patterns() const { return patterns_; }
  size_t max_window() const { return max_window_; }

  /// The shared filter network, for serving layers that drive it
  /// directly (src/serve registers it as the multi-head trunk). Owned
  /// by this object; valid for its lifetime.
  const EventNetworkFilter* filter() const { return filter_.get(); }

  /// Most windows per filter call in Evaluate (mirrors
  /// DlacepConfig::batch_size). Exposed so equivalence tests can sweep
  /// batch sizes without retraining a second system.
  void set_batch_size(size_t batch_size) { config_.batch_size = batch_size; }

 private:
  std::vector<Pattern> patterns_;
  DlacepConfig config_;
  size_t max_window_;
  InputAssembler assembler_;
  std::unique_ptr<Featurizer> featurizer_;
  std::unique_ptr<EventNetworkFilter> filter_;
  BinaryMetrics test_metrics_;
  /// The patterns, in input order, as the runtime's queries.
  std::unique_ptr<serve::QueryRegistry> registry_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_MULTI_PATTERN_H_
