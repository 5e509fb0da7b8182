// The end-to-end DLACEP pipeline (paper Fig 4):
//
//   stream → input assembler → DNN filter → CEP extractor → matches
//
// plus the measurement protocol of §5.1: BuildDlacep() assembles,
// labels, trains, and scores a filter network from a historical stream;
// Evaluate() runs the filtration + extraction path over a fresh stream
// and reports throughput, filtering ratio, and the match set;
// CompareWithEcep() additionally runs a baseline ECEP engine over the
// same stream and reports throughput gain and match quality.

#ifndef DLACEP_DLACEP_PIPELINE_H_
#define DLACEP_DLACEP_PIPELINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dlacep/assembler.h"
#include "dlacep/config.h"
#include "dlacep/extractor.h"
#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "nn/infer.h"

namespace dlacep {

/// Outcome of one pipeline evaluation.
struct PipelineResult {
  MatchSet matches;
  size_t total_events = 0;
  /// Deduplicated marked events, counted by the pipeline over the
  /// merged marks (overlapping assembler windows mark some events
  /// twice; each is counted once). Blank/padding events count too —
  /// the filter relayed them even though the extractor later drops
  /// them — so filtering_ratio() reflects what the filter kept, not
  /// what the engine processed.
  size_t marked_events = 0;
  /// Ids of marked events in deterministic merge order (window by
  /// window, duplicates from overlapping windows included). This is the
  /// pipeline's mark vector: byte-identical across num_threads
  /// settings, which the determinism tests assert.
  std::vector<EventId> marked_ids;
  double filter_seconds = 0.0;  ///< wall clock, whatever num_threads is
  double cep_seconds = 0.0;
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

/// Outcome of the filtration stage over one stream.
struct Filtration {
  /// Relayed events for the extractor, deduplicated (first covering
  /// window only), in window order.
  std::vector<const Event*> relayed;
  /// relayed.size(): every relayed event counts, blanks included, so a
  /// filtering ratio built on it measures filtration, not extraction.
  size_t marked_events = 0;
  /// Ids of marked events in window order, duplicates from overlapping
  /// windows included (PipelineResult::marked_ids).
  std::vector<EventId> marked_ids;
};

/// The filtration stage shared by DlacepPipeline and
/// MultiPatternDlacep: marks `windows` of `stream` in fixed chunks of
/// `batch_size` consecutive windows (tail chunk smaller), one
/// MarkBatchWith call per chunk, fanned out over `pool` (null = inline)
/// with one scratch arena per worker from `contexts` (grown as needed).
/// Chunk boundaries depend only on batch_size and the merge runs in
/// window order, so the result is byte-identical at any worker count.
Filtration RunFiltration(
    const StreamFilter& filter, const EventStream& stream,
    std::span<const WindowRange> windows, size_t batch_size,
    ThreadPool* pool,
    std::vector<std::unique_ptr<InferenceContext>>* contexts);

/// The assembled system: filter + extractor + assembler.
class DlacepPipeline {
 public:
  /// `filter` may be a trained network, the oracle filter, or the
  /// pass-through filter. The pipeline owns it.
  DlacepPipeline(const Pattern& pattern,
                 std::unique_ptr<StreamFilter> filter,
                 const DlacepConfig& config);

  /// Runs filtration + extraction over `stream`. With
  /// config.num_threads != 1 the filtration stage fans window inference
  /// out over a fixed-size thread pool; the result is byte-identical to
  /// the sequential run (deterministic window-order merge).
  PipelineResult Evaluate(const EventStream& stream);

  /// Runs Evaluate() plus a baseline ECEP engine over the same stream.
  ComparisonResult CompareWithEcep(const EventStream& stream,
                                   EngineKind baseline = EngineKind::kNfa);

  StreamFilter& filter() { return *filter_; }
  const InputAssembler& assembler() const { return assembler_; }

 private:
  /// The pool used for parallel filtration, created lazily on the first
  /// Evaluate() that wants more than one worker and reused afterwards.
  ThreadPool* FiltrationPool();

  Pattern pattern_;
  DlacepConfig config_;
  InputAssembler assembler_;
  std::unique_ptr<StreamFilter> filter_;
  CepExtractor extractor_;
  std::unique_ptr<ThreadPool> pool_;
  /// One inference scratch arena per filtration worker (slot 0 doubles
  /// as the sequential path's arena), created lazily alongside the pool
  /// and reused across windows and across Evaluate() calls — after the
  /// first window each Mark runs allocation-free.
  std::vector<std::unique_ptr<InferenceContext>> contexts_;
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
