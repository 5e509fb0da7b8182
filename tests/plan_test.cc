// Unit tests for plan compilation: position layouts, precedence masks,
// group repetition, negation anchoring, condition splitting, pruning
// readiness, and negation-violation checking.

#include <gtest/gtest.h>

#include <algorithm>

#include "pattern/builder.h"
#include "pattern/plan.h"
#include "stream/generator.h"

namespace dlacep {
namespace {

std::shared_ptr<Schema> TestSchema() { return MakeSyntheticSchema(6, 1); }

TEST(PlanCompile, SeqProducesTotalOrderChain) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"), b.Prim("C", "c"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans.value().size(), 1u);
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.num_positions(), 3u);
  EXPECT_EQ(plan.preds[0], 0u);
  EXPECT_EQ(plan.preds[1], 0b001u);
  EXPECT_EQ(plan.preds[2], 0b011u);
  EXPECT_FALSE(plan.group_repeat);
  EXPECT_TRUE(plan.negs.empty());
}

TEST(PlanCompile, ConjProducesUnorderedPositions) {
  PatternBuilder b(TestSchema());
  auto root = b.Conj(b.Prim("A", "a"), b.Prim("B", "bb"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  EXPECT_EQ(plan.preds[0], 0u);
  EXPECT_EQ(plan.preds[1], 0u);
}

TEST(PlanCompile, DisjYieldsOnePlanPerBranch) {
  PatternBuilder b(TestSchema());
  auto root = b.Disj(b.Seq(b.Prim("A", "a"), b.Prim("B", "bb")),
                     b.Prim("C", "c"));
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans.value().size(), 2u);
  // The condition over (a, bb) belongs to the first branch only.
  EXPECT_EQ(plans.value()[0].pos_conditions.size(), 1u);
  EXPECT_EQ(plans.value()[1].pos_conditions.size(), 0u);
}

TEST(PlanCompile, KleenePrimitiveInsideSeq) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"),
                    b.Kleene(b.Prim("B", "k"), 2, 5),
                    b.Prim("C", "c"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.num_positions(), 3u);
  EXPECT_TRUE(plan.positions[1].kleene);
  EXPECT_EQ(plan.positions[1].min_reps, 2u);
  EXPECT_EQ(plan.positions[1].max_reps, 5u);
}

TEST(PlanCompile, TopLevelKcSeqSetsGroupRepeat) {
  PatternBuilder b(TestSchema());
  auto root = b.Kleene(b.Seq(b.Prim("A", "a"), b.Prim("B", "bb")), 1, 4);
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  EXPECT_TRUE(plan.group_repeat);
  EXPECT_EQ(plan.group_max_reps, 4u);
  EXPECT_EQ(plan.num_positions(), 2u);
}

TEST(PlanCompile, NegationAnchorsBetweenNeighbors) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Neg(b.Prim("D", "nd")), b.Prim("B", "bb"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.num_positions(), 2u);  // only positives
  ASSERT_EQ(plan.negs.size(), 2u);
  for (const NegSubPattern& neg : plan.negs) {
    EXPECT_EQ(neg.after_pos, 0);
    EXPECT_EQ(neg.before_pos, 1);
    ASSERT_EQ(neg.positions.size(), 1u);
  }
}

TEST(PlanCompile, NegConditionsAreSplitFromPositive) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Prim("B", "bb"));
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");   // positive
  b.WhereCmp(1.0, "nc", "vol", CmpOp::kGt, 1.0, "a");   // negation
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  EXPECT_EQ(plan.pos_conditions.size(), 1u);
  EXPECT_EQ(plan.neg_conditions.size(), 1u);
}

TEST(PlanCompile, MultiTypePositionsCarryTheirSets) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.PrimAnyOf({"A", "B", "C"}, "x"), b.Prim("D", "y"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const PlanPosition& pos = plans.value()[0].positions[0];
  EXPECT_EQ(pos.types.size(), 3u);
  EXPECT_TRUE(pos.Matches(0));
  EXPECT_TRUE(pos.Matches(2));
  EXPECT_FALSE(pos.Matches(3));
}

TEST(ReadyForPruning, RequiresEqualKleeneListLengths) {
  PatternBuilder b(TestSchema());
  auto root = b.Kleene(b.Seq(b.Prim("A", "a"), b.Prim("B", "bb")), 1, 3);
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];

  Event e1(0, 0, 0, {1.0});
  Event e2(1, 1, 1, {2.0});
  Event e3(2, 0, 2, {3.0});
  // Identify which var is "a" by the VarInfo list.
  VarId a_var = -1;
  VarId b_var = -1;
  for (size_t i = 0; i < pattern.vars().size(); ++i) {
    if (pattern.vars()[i].name == "a") a_var = static_cast<VarId>(i);
    if (pattern.vars()[i].name == "bb") b_var = static_cast<VarId>(i);
  }
  // The compiled check the engines run after binding a.
  ASSERT_EQ(plan.pruning_index[static_cast<size_t>(a_var)].size(), 1u);
  const CompiledCondition& check =
      plan.pruning_index[static_cast<size_t>(a_var)][0];
  EXPECT_EQ(check.condition, pattern.conditions()[0].get());
  EXPECT_EQ(check.kleene_vars.size(), 2u);  // both group variables

  Binding fresh(2);
  fresh.Bind(a_var, &e1);
  EXPECT_FALSE(ReadyForPruningEval(check, fresh));  // bb unbound
  fresh.Bind(b_var, &e2);
  EXPECT_TRUE(ReadyForPruningEval(check, fresh));  // 1 vs 1
  fresh.Bind(a_var, &e3);
  EXPECT_FALSE(ReadyForPruningEval(check, fresh));  // 2 vs 1
}

TEST(PruningIndex, ListsExactlyTheConditionsReferencingEachVariable) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"), b.Prim("C", "c"),
                    b.Kleene(b.Prim("D", "d"), 1, 3));
  const VarId a = b.Var("a");
  const VarId bb = b.Var("bb");
  const VarId c = b.Var("c");
  const VarId d = b.Var("d");
  auto cmp = [](VarId l, VarId r) {
    return std::make_unique<CompareCondition>(Term::Attr(l, 0), CmpOp::kLt,
                                              Term::Attr(r, 0));
  };
  b.Where(MakeBandCondition(bb, 0, a, 0, 0.5, 1.5));  // And over {a, bb}
  std::vector<std::unique_ptr<Condition>> either;
  either.push_back(cmp(c, d));
  either.push_back(cmp(a, c));
  b.Where(std::make_unique<OrCondition>(std::move(either)));  // {a, c, d}
  b.Where(std::make_unique<NotCondition>(cmp(bb, d)));        // {bb, d}
  b.Where(std::make_unique<LambdaCondition>(
      std::vector<VarId>{c}, [](const Binding&) { return true; },
      "always"));  // {c}
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.pos_conditions.size(), 4u);
  ASSERT_EQ(plan.pruning_index.size(), pattern.num_vars());

  for (size_t v = 0; v < pattern.num_vars(); ++v) {
    std::vector<const Condition*> expected;
    for (const Condition* condition : plan.pos_conditions) {
      const std::vector<VarId> vars = condition->Vars();
      if (std::find(vars.begin(), vars.end(), static_cast<VarId>(v)) !=
          vars.end()) {
        expected.push_back(condition);
      }
    }
    std::vector<const Condition*> indexed;
    for (const CompiledCondition& check : plan.pruning_index[v]) {
      indexed.push_back(check.condition);
      EXPECT_EQ(check.vars, check.condition->Vars());
      // Only d is a Kleene variable.
      const bool has_d = std::find(check.vars.begin(), check.vars.end(),
                                   d) != check.vars.end();
      EXPECT_EQ(check.kleene_vars,
                has_d ? std::vector<VarId>{d} : std::vector<VarId>{});
    }
    EXPECT_EQ(indexed, expected) << "variable " << v;
  }
  EXPECT_EQ(plan.pruning_index[static_cast<size_t>(a)].size(), 2u);
  EXPECT_EQ(plan.pruning_index[static_cast<size_t>(bb)].size(), 2u);
  EXPECT_EQ(plan.pruning_index[static_cast<size_t>(c)].size(), 2u);
  EXPECT_EQ(plan.pruning_index[static_cast<size_t>(d)].size(), 2u);
}

TEST(ViolatesNegationCheck, DetectsAndRespectsConditions) {
  auto schema = TestSchema();
  EventStream stream(schema);
  stream.Append(0, 0, {1.0});  // A  (id 0)
  stream.Append(2, 1, {5.0});  // C  (id 1) — the negated type
  stream.Append(1, 2, {2.0});  // B  (id 2)

  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Prim("B", "bb"));
  b.WhereCmp(1.0, "nc", "vol", CmpOp::kGt, 1.0, "a");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];

  VarId a_var = -1;
  VarId b_var = -1;
  for (size_t i = 0; i < pattern.vars().size(); ++i) {
    if (pattern.vars()[i].name == "a") a_var = static_cast<VarId>(i);
    if (pattern.vars()[i].name == "bb") b_var = static_cast<VarId>(i);
  }
  Binding binding(pattern.num_vars());
  binding.Bind(a_var, &stream[0]);
  binding.Bind(b_var, &stream[2]);

  const std::span<const Event> span(stream.events().data(), stream.size());
  // C's vol (5.0) > a's vol (1.0): the negated occurrence qualifies.
  EXPECT_TRUE(ViolatesNegation(plan, binding, span));
}

TEST(ViolatesNegationCheck, IgnoresNonQualifyingOccurrence) {
  auto schema = TestSchema();
  EventStream stream(schema);
  stream.Append(0, 0, {10.0});  // A with high vol
  stream.Append(2, 1, {5.0});   // C with lower vol — does not qualify
  stream.Append(1, 2, {2.0});   // B

  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Prim("B", "bb"));
  b.WhereCmp(1.0, "nc", "vol", CmpOp::kGt, 1.0, "a");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());

  VarId a_var = -1;
  VarId b_var = -1;
  for (size_t i = 0; i < pattern.vars().size(); ++i) {
    if (pattern.vars()[i].name == "a") a_var = static_cast<VarId>(i);
    if (pattern.vars()[i].name == "bb") b_var = static_cast<VarId>(i);
  }
  Binding binding(pattern.num_vars());
  binding.Bind(a_var, &stream[0]);
  binding.Bind(b_var, &stream[2]);
  EXPECT_FALSE(ViolatesNegation(
      plans.value()[0], binding,
      std::span<const Event>(stream.events().data(), stream.size())));
}

TEST(PatternValidation, RejectsUnsupportedShapes) {
  {
    PatternBuilder b(TestSchema());
    auto root = b.Seq(b.Prim("A", "a"),
                      b.Kleene(b.Seq(b.Prim("B", "x"), b.Prim("C", "y")),
                               1, 2));
    EXPECT_FALSE(b.Build(std::move(root), WindowSpec::Count(5)).ok());
  }
  {
    PatternBuilder b(TestSchema());
    auto root = b.Conj(b.Prim("A", "a"),
                       b.Seq(b.Prim("B", "x"), b.Prim("C", "y")));
    EXPECT_FALSE(b.Build(std::move(root), WindowSpec::Count(5)).ok());
  }
}

}  // namespace
}  // namespace dlacep
