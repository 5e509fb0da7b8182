// Shared helpers for unit and property tests.

#ifndef DLACEP_TESTS_TEST_UTIL_H_
#define DLACEP_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dlacep/assembler.h"
#include "dlacep/extractor.h"
#include "dlacep/filter.h"
#include "dlacep/pipeline.h"
#include "pattern/builder.h"
#include "stream/generator.h"
#include "stream/stocksim.h"
#include "stream/stream.h"

namespace dlacep {
namespace testing_util {

/// A small synthetic stream over types A.. with one N(0,1) attribute.
inline EventStream SmallStream(size_t num_events, uint64_t seed,
                               size_t num_types = 5) {
  SyntheticConfig config;
  config.num_events = num_events;
  config.num_types = num_types;
  config.num_attrs = 1;
  config.seed = seed;
  return GenerateSynthetic(config);
}

/// A Zipf-skewed stock stream: a few hot symbols dominate, so symbols
/// cluster in runs of windows — the regime in which shard routing must
/// neither perturb output nor unbalance the shards.
inline EventStream ZipfStockStream() {
  StockSimConfig config;
  config.num_events = 4000;
  config.num_symbols = 12;
  config.zipf_exponent = 1.4;
  config.seed = 21;
  return GenerateStockStream(config);
}

/// SEQ(S0 a, S1 b) with an ascending-volume condition, over a stock
/// schema.
inline Pattern StockSeqPattern(std::shared_ptr<const Schema> schema,
                               size_t window) {
  PatternBuilder builder(std::move(schema));
  std::vector<PatternBuilder::Node> children;
  children.push_back(builder.Prim("S0", "a"));
  children.push_back(builder.Prim("S1", "b"));
  auto root = builder.SeqOf(std::move(children));
  builder.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.2, "b");
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

/// SEQ(A v0, B v1, ...) of `len` positions with ascending-volume
/// conditions between consecutive positions (selectivity ~0.5 each).
inline Pattern AscendingSeqPattern(std::shared_ptr<const Schema> schema,
                                   size_t len, size_t window) {
  PatternBuilder builder(std::move(schema));
  auto var_name = [](size_t i) {
    std::string name = "v";
    name += std::to_string(i);
    return name;
  };
  std::vector<PatternBuilder::Node> children;
  for (size_t i = 0; i < len; ++i) {
    const std::string type(1, static_cast<char>('A' + i));
    children.push_back(builder.Prim(type, var_name(i)));
  }
  auto root = builder.SeqOf(std::move(children));
  for (size_t i = 0; i + 1 < len; ++i) {
    builder.WhereCmp(1.0, var_name(i), "vol", CmpOp::kLt, 1.0,
                     var_name(i + 1));
  }
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

/// The filtration + extraction contract evaluated the plainest way, as
/// an oracle independent of the runtime: sequential filter.Mark over
/// each assembler window (geometry as in DlacepConfig, 0 = 2W / W),
/// marks merged in window order, each marked position relayed once (by
/// its first covering window), then one CepExtractor pass. Fills
/// matches, marked_ids, marked_events, total_events and cep_stats.
inline PipelineResult ReferenceEvaluate(const Pattern& pattern,
                                        const StreamFilter& filter,
                                        const EventStream& stream,
                                        size_t mark_size = 0,
                                        size_t step_size = 0) {
  const InputAssembler assembler = InputAssembler::ForWindow(
      pattern.window().count_size(), mark_size, step_size);
  PipelineResult result;
  result.total_events = stream.size();
  std::vector<const Event*> relayed;
  std::vector<bool> seen(stream.size(), false);
  for (const WindowRange& range : assembler.Windows(stream.size())) {
    const std::vector<int> marks = filter.Mark(stream, range);
    for (size_t t = 0; t < marks.size(); ++t) {
      if (marks[t] == 0) continue;
      const size_t pos = range.begin + t;
      result.marked_ids.push_back(stream[pos].id);
      if (!seen[pos]) {
        seen[pos] = true;
        relayed.push_back(&stream[pos]);
      }
    }
  }
  result.marked_events = relayed.size();
  CepExtractor extractor(pattern);
  const Status status = extractor.Extract(std::move(relayed),
                                          &result.matches);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  result.cep_stats = extractor.stats();
  return result;
}

}  // namespace testing_util
}  // namespace dlacep

#endif  // DLACEP_TESTS_TEST_UTIL_H_
