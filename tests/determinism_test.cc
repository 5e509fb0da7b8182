// Reproducibility tests: all stochastic components are seeded, so
// training, filtering, and evaluation must be bit-identical across runs
// with the same configuration.

#include <gtest/gtest.h>

#include <cstdio>

#include "dlacep/event_filter.h"
#include "dlacep/pipeline.h"
#include "nn/serialize.h"
#include "pattern/builder.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::SmallStream;

Pattern TestPattern(std::shared_ptr<const Schema> schema) {
  PatternBuilder b(std::move(schema));
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"));
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");
  return b.BuildOrDie(std::move(root), WindowSpec::Count(8));
}

TEST(Determinism, BuildDlacepIsBitReproducible) {
  const EventStream train = SmallStream(800, 201);
  const EventStream test = SmallStream(400, 202);
  const Pattern pattern = TestPattern(train.schema_ptr());

  DlacepConfig config;
  config.network.hidden_dim = 6;
  config.network.num_layers = 1;
  config.train.max_epochs = 6;

  auto run = [&] {
    BuiltDlacep built =
        BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
    return built.pipeline->Evaluate(test);
  };
  const PipelineResult a = run();
  const PipelineResult b = run();
  EXPECT_EQ(a.matches.size(), b.matches.size());
  EXPECT_EQ(a.marked_events, b.marked_events);
  auto it_a = a.matches.begin();
  auto it_b = b.matches.begin();
  for (; it_a != a.matches.end(); ++it_a, ++it_b) {
    EXPECT_EQ(it_a->ids, it_b->ids);
  }
}

TEST(Determinism, DifferentNetworkSeedsDiverge) {
  const EventStream train = SmallStream(800, 203);
  const Pattern pattern = TestPattern(train.schema_ptr());

  DlacepConfig a;
  a.network.hidden_dim = 6;
  a.network.num_layers = 1;
  a.train.max_epochs = 3;
  DlacepConfig b = a;
  b.network.seed = a.network.seed + 1;

  BuiltDlacep built_a =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, a);
  BuiltDlacep built_b =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, b);
  // Different initializations — loss trajectories should differ.
  EXPECT_NE(built_a.train_result.final_loss,
            built_b.train_result.final_loss);
}

TEST(Determinism, SavedFilterProducesIdenticalMarksAfterReload) {
  const EventStream train = SmallStream(800, 204);
  const EventStream probe = SmallStream(200, 205);
  const Pattern pattern = TestPattern(train.schema_ptr());

  NetworkConfig network;
  network.hidden_dim = 6;
  network.num_layers = 1;
  const Featurizer featurizer(pattern, train);
  EventNetworkFilter filter(&featurizer, network, 0.5);
  const InputAssembler assembler = InputAssembler::ForWindow(8);
  const FilterDataset dataset =
      BuildFilterDataset(pattern, train, assembler, featurizer, 0.9, 17);
  TrainConfig train_config;
  train_config.max_epochs = 5;
  filter.Fit(dataset.train_event, train_config);

  const WindowRange range{0, 64};
  const std::vector<int> marks_before = filter.Mark(probe, range);

  const std::string path = ::testing::TempDir() + "/filter_roundtrip.bin";
  ASSERT_TRUE(SaveParameters(filter.Params(), path).ok());

  // A fresh filter with different random init, restored from disk.
  NetworkConfig other = network;
  other.seed = network.seed + 99;
  EventNetworkFilter restored(&featurizer, other, 0.5);
  EXPECT_NE(restored.Mark(probe, range), marks_before);  // pre-load
  ASSERT_TRUE(LoadParameters(restored.Params(), path).ok());
  restored.OnParamsChanged();  // repack frozen inference weights
  EXPECT_EQ(restored.Mark(probe, range), marks_before);  // post-load
  std::remove(path.c_str());
}

/// Evaluation must be byte-identical at every shard count
/// (DlacepConfig::num_threads) and to the sequential reference: same
/// mark vector (merge order included), same dedup count, same filtering
/// ratio, same matches.
void ExpectShardCountInvariance(FilterKind kind) {
  const EventStream train = SmallStream(800, 206);
  const EventStream test = SmallStream(400, 207);
  const Pattern pattern = TestPattern(train.schema_ptr());

  DlacepConfig config;
  config.network.hidden_dim = 6;
  config.network.num_layers = 1;
  config.train.max_epochs = 6;

  BuiltDlacep built = BuildDlacep(pattern, train, kind, config);

  auto evaluate = [&](size_t shards) {
    DlacepConfig sharded = config;
    sharded.num_threads = shards;
    DlacepPipeline pipeline(
        pattern,
        std::make_unique<BorrowedFilter>(&built.pipeline->filter()),
        sharded);
    return pipeline.Evaluate(test);
  };

  const PipelineResult sequential = testing_util::ReferenceEvaluate(
      pattern, built.pipeline->filter(), test);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const PipelineResult parallel = evaluate(shards);
    EXPECT_EQ(parallel.marked_ids, sequential.marked_ids);
    EXPECT_EQ(parallel.marked_events, sequential.marked_events);
    EXPECT_DOUBLE_EQ(parallel.filtering_ratio(),
                     sequential.filtering_ratio());
    ASSERT_EQ(parallel.matches.size(), sequential.matches.size());
    auto it_p = parallel.matches.begin();
    auto it_s = sequential.matches.begin();
    for (; it_s != sequential.matches.end(); ++it_p, ++it_s) {
      EXPECT_EQ(it_p->ids, it_s->ids);
    }
  }
}

TEST(Determinism, EventNetworkMarksAreThreadCountInvariant) {
  ExpectShardCountInvariance(FilterKind::kEventNetwork);
}

TEST(Determinism, WindowNetworkMarksAreThreadCountInvariant) {
  ExpectShardCountInvariance(FilterKind::kWindowNetwork);
}

TEST(Determinism, RngStreamsAreStableAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
  EXPECT_DOUBLE_EQ(Rng(7).Normal(), Rng(7).Normal());
  EXPECT_EQ(Rng(9).Permutation(20), Rng(9).Permutation(20));
}

}  // namespace
}  // namespace dlacep
