// The end-to-end DLACEP pipeline (paper Fig 4):
//
//   stream → input assembler → DNN filter → CEP extractor → matches
//
// plus the measurement protocol of §5.1: BuildDlacep() assembles,
// labels, trains, and scores a filter network from a historical stream;
// Evaluate() replays a fresh stream through the online runtime
// (runtime/online.h) and reports throughput, filtering ratio, and the
// match set; CompareWithEcep() additionally runs a baseline ECEP engine
// over the same stream and reports throughput gain and match quality.

#ifndef DLACEP_DLACEP_PIPELINE_H_
#define DLACEP_DLACEP_PIPELINE_H_

#include <memory>
#include <vector>

#include "dlacep/assembler.h"
#include "dlacep/config.h"
#include "dlacep/extractor.h"
#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "runtime/online.h"

namespace dlacep {

/// Outcome of one pipeline evaluation.
struct PipelineResult {
  MatchSet matches;
  size_t total_events = 0;
  /// Deduplicated marked events, counted by the runtime's merge
  /// (overlapping assembler windows mark some events twice; each is
  /// counted once). Blank/padding events count too — the filter relayed
  /// them even though the extractor later drops them — so
  /// filtering_ratio() reflects what the filter kept, not what the
  /// engine processed.
  size_t marked_events = 0;
  /// Ids of marked events in deterministic merge order (window by
  /// window, duplicates from overlapping windows included). This is the
  /// pipeline's mark vector: byte-identical across num_threads and
  /// batch_size settings, which the determinism tests assert.
  std::vector<EventId> marked_ids;
  /// Wall clock of the run's streaming phase (ingest through merged
  /// marks), whatever num_threads is.
  double filter_seconds = 0.0;
  double cep_seconds = 0.0;  ///< end-of-stream extraction
  EngineStats cep_stats;

  double elapsed_seconds() const { return filter_seconds + cep_seconds; }
  double throughput() const {
    return Throughput(static_cast<double>(total_events),
                      elapsed_seconds());
  }
  /// Fraction of events filtered out (the paper's filtering ratio Ψ,
  /// aggregated over all types).
  double filtering_ratio() const {
    return total_events == 0
               ? 0.0
               : 1.0 - static_cast<double>(marked_events) /
                           static_cast<double>(total_events);
  }
};

/// ECEP-vs-DLACEP comparison (one row of the paper's gain/recall plots).
struct ComparisonResult {
  PipelineResult dlacep;
  MatchSet exact_matches;
  EngineStats ecep_stats;
  double ecep_seconds = 0.0;
  MatchSetMetrics quality;  ///< recall / precision / F1 / FN%

  double throughput_gain() const {
    return dlacep.throughput() /
           Throughput(static_cast<double>(dlacep.total_events),
                      ecep_seconds);
  }
};

/// The runtime configuration every batch evaluation uses: one lossless,
/// overload- and health-check-free run over a ReplaySource, with
/// config.num_threads shards, config.batch_size windows per filter call
/// at most, and the assembler geometry of `config`. The in-flight bound
/// leaves each shard room for two full batches (2·shards·batch_size + 2,
/// the runtime's default at batch_size 1).
OnlineConfig ReplayConfig(const DlacepConfig& config);

/// CHECKs that `stream` carries dense ids 0..N-1 (ids strictly
/// increase, so the ends suffice): the runtime reassigns arrival ids on
/// replay, and a replayed match must name the stream's own events.
void CheckDenseIds(const EventStream& stream);

/// The assembled system: assembler + filter + the runtime it runs on.
class DlacepPipeline {
 public:
  /// `filter` may be a trained network, the oracle filter, or the
  /// pass-through filter. The pipeline owns it.
  DlacepPipeline(const Pattern& pattern,
                 std::unique_ptr<StreamFilter> filter,
                 const DlacepConfig& config);

  /// Runs filtration + extraction over `stream`: one OnlineDlacep::Run
  /// over a ReplaySource (ReplayConfig), so config.num_threads is the
  /// shard count and the result is byte-identical at any setting. The
  /// runtime assigns arrival ids 0..N-1, so `stream` must carry dense
  /// ids from 0 — true of every generator and ReadCsv stream, not of an
  /// offset Slice (CHECKed).
  PipelineResult Evaluate(const EventStream& stream);

  /// Runs Evaluate() plus a baseline ECEP engine over the same stream.
  ComparisonResult CompareWithEcep(const EventStream& stream,
                                   EngineKind baseline = EngineKind::kNfa);

  StreamFilter& filter() { return *filter_; }
  const InputAssembler& assembler() const { return assembler_; }

 private:
  Pattern pattern_;
  InputAssembler assembler_;
  std::unique_ptr<StreamFilter> filter_;
  OnlineDlacep online_;  ///< borrows *filter_; reused across Evaluate()s
};

/// A fully built DLACEP instance: featurizer + trained filter + pipeline
/// + training/test diagnostics.
struct BuiltDlacep {
  std::unique_ptr<Featurizer> featurizer;
  std::unique_ptr<DlacepPipeline> pipeline;
  TrainResult train_result;
  BinaryMetrics test_metrics;   ///< entity-level P/R/F1 on the test split
  double label_seconds = 0.0;   ///< dataset labeling time
  double train_seconds = 0.0;
};

enum class FilterKind { kEventNetwork, kWindowNetwork, kOracle,
                        kPassThrough };

const char* FilterKindName(FilterKind kind);

/// Builds a DLACEP system for `pattern` from the historical
/// `train_stream`: assembles sample windows, labels them with exact CEP,
/// trains the requested filter network (no-op for oracle/pass-through),
/// and scores it on the held-out test split.
BuiltDlacep BuildDlacep(const Pattern& pattern,
                        const EventStream& train_stream, FilterKind kind,
                        const DlacepConfig& config);

}  // namespace dlacep

#endif  // DLACEP_DLACEP_PIPELINE_H_
