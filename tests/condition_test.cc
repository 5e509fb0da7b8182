// Unit tests for conditions: terms, comparison semantics, composition,
// Kleene-list evaluation rules (aligned vs universal), CanEval, and the
// inline binding slots (EventList) bindings are made of.

#include <gtest/gtest.h>

#include <utility>

#include "pattern/condition.h"

namespace dlacep {
namespace {

Event MakeEvent(EventId id, TypeId type, double vol) {
  return Event(id, type, static_cast<double>(id), {vol});
}

TEST(Term, ValueComputesAffineTransform) {
  const Event e = MakeEvent(0, 0, 10.0);
  EXPECT_DOUBLE_EQ(Term::Attr(0, 0).ValueFor(e), 10.0);
  EXPECT_DOUBLE_EQ(Term::Attr(0, 0, 0.5).ValueFor(e), 5.0);
  EXPECT_DOUBLE_EQ(Term::Attr(0, 0, 2.0, 1.0).ValueFor(e), 21.0);
}

TEST(CompareCondition, ScalarComparisons) {
  const Event a = MakeEvent(0, 0, 1.0);
  const Event b = MakeEvent(1, 1, 2.0);
  Binding binding(2);
  binding.Bind(0, &a);
  binding.Bind(1, &b);

  const struct {
    CmpOp op;
    bool expected;
  } cases[] = {
      {CmpOp::kLt, true},  {CmpOp::kLe, true},  {CmpOp::kGt, false},
      {CmpOp::kGe, false}, {CmpOp::kEq, false}, {CmpOp::kNe, true},
  };
  for (const auto& c : cases) {
    CompareCondition cond(Term::Attr(0, 0), c.op, Term::Attr(1, 0));
    EXPECT_EQ(cond.Eval(binding), c.expected) << CmpOpName(c.op);
  }
}

TEST(CompareCondition, ConstantSides) {
  const Event a = MakeEvent(0, 0, 3.0);
  Binding binding(1);
  binding.Bind(0, &a);
  EXPECT_TRUE(CompareCondition(Term::Const(2.5), CmpOp::kLt,
                               Term::Attr(0, 0))
                  .Eval(binding));
  EXPECT_FALSE(CompareCondition(Term::Attr(0, 0), CmpOp::kLt,
                                Term::Const(2.5))
                   .Eval(binding));
  EXPECT_TRUE(CompareCondition(Term::Const(1.0), CmpOp::kLt,
                               Term::Const(2.0))
                  .Eval(Binding(0)));
}

TEST(CompareCondition, UniversalOverKleeneList) {
  const Event k1 = MakeEvent(0, 0, 1.0);
  const Event k2 = MakeEvent(1, 0, 5.0);
  const Event x = MakeEvent(2, 1, 3.0);
  Binding binding(2);
  binding.Bind(0, &k1);
  binding.Bind(0, &k2);  // var 0 is a list of two
  binding.Bind(1, &x);

  // var0 < var1 must hold for EVERY element: 5.0 < 3.0 fails.
  EXPECT_FALSE(CompareCondition(Term::Attr(0, 0), CmpOp::kLt,
                                Term::Attr(1, 0))
                   .Eval(binding));
  // var0 < 6 holds for every element.
  EXPECT_TRUE(CompareCondition(Term::Attr(0, 0), CmpOp::kLt,
                               Term::Const(6.0))
                  .Eval(binding));
}

TEST(CompareCondition, AlignedWhenBothListsSameLength) {
  const Event a1 = MakeEvent(0, 0, 1.0);
  const Event a2 = MakeEvent(1, 0, 10.0);
  const Event b1 = MakeEvent(2, 1, 2.0);
  const Event b2 = MakeEvent(3, 1, 20.0);
  Binding binding(2);
  binding.Bind(0, &a1);
  binding.Bind(0, &a2);
  binding.Bind(1, &b1);
  binding.Bind(1, &b2);

  // Aligned: 1<2 and 10<20 — true even though 10<2 would fail under
  // cross-product semantics.
  EXPECT_TRUE(CompareCondition(Term::Attr(0, 0), CmpOp::kLt,
                               Term::Attr(1, 0))
                  .Eval(binding));
}

TEST(CompareCondition, SameVarBothSides) {
  const Event a = MakeEvent(0, 0, 2.0);
  Binding binding(1);
  binding.Bind(0, &a);
  // 0.5 * v < v holds for positive values.
  EXPECT_TRUE(CompareCondition(Term::Attr(0, 0, 0.5), CmpOp::kLt,
                               Term::Attr(0, 0))
                  .Eval(binding));
}

TEST(Composites, AndOrNot) {
  const Event a = MakeEvent(0, 0, 1.0);
  Binding binding(1);
  binding.Bind(0, &a);

  auto lt2 = std::make_unique<CompareCondition>(Term::Attr(0, 0),
                                                CmpOp::kLt,
                                                Term::Const(2.0));
  auto gt5 = std::make_unique<CompareCondition>(Term::Attr(0, 0),
                                                CmpOp::kGt,
                                                Term::Const(5.0));
  std::vector<std::unique_ptr<Condition>> both;
  both.push_back(lt2->Clone());
  both.push_back(gt5->Clone());
  EXPECT_FALSE(AndCondition(std::move(both)).Eval(binding));

  std::vector<std::unique_ptr<Condition>> either;
  either.push_back(lt2->Clone());
  either.push_back(gt5->Clone());
  EXPECT_TRUE(OrCondition(std::move(either)).Eval(binding));

  EXPECT_FALSE(NotCondition(lt2->Clone()).Eval(binding));
}

TEST(Composites, VarsAreUnionedAndDeduplicated) {
  std::vector<std::unique_ptr<Condition>> parts;
  parts.push_back(std::make_unique<CompareCondition>(
      Term::Attr(2, 0), CmpOp::kLt, Term::Attr(0, 0)));
  parts.push_back(std::make_unique<CompareCondition>(
      Term::Attr(0, 0), CmpOp::kLt, Term::Attr(1, 0)));
  AndCondition cond(std::move(parts));
  EXPECT_EQ(cond.Vars(), (std::vector<VarId>{0, 1, 2}));
}

TEST(Condition, CanEvalRequiresAllVarsBound) {
  CompareCondition cond(Term::Attr(0, 0), CmpOp::kLt, Term::Attr(1, 0));
  const Event a = MakeEvent(0, 0, 1.0);
  Binding binding(2);
  EXPECT_FALSE(cond.CanEval(binding));
  binding.Bind(0, &a);
  EXPECT_FALSE(cond.CanEval(binding));
  binding.Bind(1, &a);
  EXPECT_TRUE(cond.CanEval(binding));
}

TEST(BandCondition, FactoryBuildsTwoSidedBand) {
  const Event x = MakeEvent(0, 0, 10.0);
  const Event y = MakeEvent(1, 1, 9.5);
  Binding binding(2);
  binding.Bind(0, &x);
  binding.Bind(1, &y);
  // 0.9 * x < y < 1.1 * x: y within the band of x.
  auto band = MakeBandCondition(/*x=*/1, 0, /*y=*/0, 0, 0.9, 1.1);
  EXPECT_TRUE(band->Eval(binding));
  // Tight band excludes it.
  auto tight = MakeBandCondition(1, 0, 0, 0, 0.99, 1.01);
  EXPECT_FALSE(tight->Eval(binding));
}

TEST(LambdaCondition, WrapsArbitraryPredicate) {
  const Event a = MakeEvent(0, 0, 4.0);
  Binding binding(1);
  binding.Bind(0, &a);
  LambdaCondition cond(
      {0},
      [](const Binding& b) { return b.Single(0).attr(0) > 3.0; },
      "vol > 3");
  EXPECT_TRUE(cond.Eval(binding));
  EXPECT_EQ(cond.ToString(nullptr), "vol > 3");
  EXPECT_TRUE(cond.Clone()->Eval(binding));
}

TEST(Binding, AllEventsSortsAndDeduplicates) {
  const Event a = MakeEvent(5, 0, 1.0);
  const Event b = MakeEvent(2, 1, 2.0);
  Binding binding(3);
  binding.Bind(0, &a);
  binding.Bind(1, &b);
  binding.Bind(2, &a);  // same event twice
  const auto events = binding.AllEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0]->id, 2u);
  EXPECT_EQ(events[1]->id, 5u);
}

TEST(EventList, SpillsPastInlineCapacityAndPopsBackInline) {
  const Event e0 = MakeEvent(0, 0, 1.0);
  const Event e1 = MakeEvent(1, 0, 2.0);
  const Event e2 = MakeEvent(2, 0, 3.0);
  const Event e3 = MakeEvent(3, 0, 4.0);
  ASSERT_EQ(EventList::kInlineCapacity, 2u);
  EventList list;
  EXPECT_TRUE(list.empty());
  list.push_back(&e0);
  list.push_back(&e1);
  EXPECT_FALSE(list.spilled());
  list.push_back(&e2);  // past the inline capacity
  EXPECT_TRUE(list.spilled());
  list.push_back(&e3);
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list.front(), &e0);
  EXPECT_EQ(list.back(), &e3);
  EXPECT_EQ(list[2], &e2);
  EXPECT_EQ(std::vector<const Event*>(list.begin(), list.end()),
            (std::vector<const Event*>{&e0, &e1, &e2, &e3}));

  list.pop_back();
  EXPECT_TRUE(list.spilled());  // 3 events still need the heap
  list.pop_back();
  EXPECT_FALSE(list.spilled());  // back into inline storage
  EXPECT_EQ(std::vector<const Event*>(list.begin(), list.end()),
            (std::vector<const Event*>{&e0, &e1}));
  list.pop_back();
  list.pop_back();
  EXPECT_TRUE(list.empty());
  list.push_back(&e3);  // reusable after emptying
  EXPECT_EQ(list.back(), &e3);
}

TEST(EventList, CopyAndMoveInBothStates) {
  const Event e0 = MakeEvent(0, 0, 1.0);
  const Event e1 = MakeEvent(1, 0, 2.0);
  const Event e2 = MakeEvent(2, 0, 3.0);
  auto events = [](const EventList& list) {
    return std::vector<const Event*>(list.begin(), list.end());
  };
  EventList short_list;
  short_list.push_back(&e0);
  EventList long_list;
  for (const Event* e : {&e0, &e1, &e2}) long_list.push_back(e);
  const std::vector<const Event*> short_events{&e0};
  const std::vector<const Event*> long_events{&e0, &e1, &e2};

  // Copies are deep: changing the copy leaves the source alone.
  EventList short_copy(short_list);
  EventList long_copy(long_list);
  EXPECT_FALSE(short_copy.spilled());
  EXPECT_TRUE(long_copy.spilled());
  EXPECT_NE(long_copy.begin(), long_list.begin());
  short_copy.push_back(&e2);
  long_copy.pop_back();
  EXPECT_EQ(events(short_list), short_events);
  EXPECT_EQ(events(long_list), long_events);
  EXPECT_FALSE(long_copy.spilled());  // a copy popped to 2 is inline

  // Copy assignment across states: inline <- spilled, spilled <- inline.
  EventList target;
  target = long_list;
  EXPECT_TRUE(target.spilled());
  EXPECT_EQ(events(target), long_events);
  target = short_list;
  EXPECT_FALSE(target.spilled());
  EXPECT_EQ(events(target), short_events);

  // Moves take the heap storage or the inline events, leaving the
  // source empty and inline.
  const Event* const* heap = long_list.begin();
  EventList moved_long(std::move(long_list));
  EXPECT_TRUE(moved_long.spilled());
  EXPECT_EQ(moved_long.begin(), heap);
  EXPECT_EQ(events(moved_long), long_events);
  EXPECT_TRUE(long_list.empty());     // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(long_list.spilled());  // NOLINT(bugprone-use-after-move)
  EventList moved_short;
  moved_short = std::move(short_list);
  EXPECT_EQ(events(moved_short), short_events);
  EXPECT_TRUE(short_list.empty());  // NOLINT(bugprone-use-after-move)
  moved_short = std::move(moved_long);  // spilled into an inline list
  EXPECT_TRUE(moved_short.spilled());
  EXPECT_EQ(events(moved_short), long_events);
}

TEST(Binding, AllEventsCoversSpilledKleeneLists) {
  const Event a = MakeEvent(7, 0, 1.0);
  const Event k1 = MakeEvent(3, 1, 2.0);
  const Event k2 = MakeEvent(4, 1, 2.0);
  const Event k3 = MakeEvent(5, 1, 2.0);
  Binding binding(2);
  binding.Bind(0, &a);
  for (const Event* k : {&k1, &k2, &k3}) binding.Bind(1, k);
  const Binding copy = binding;
  for (const Binding* b : {&std::as_const(binding), &copy}) {
    const auto events = b->AllEvents();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0]->id, 3u);
    EXPECT_EQ(events[1]->id, 4u);
    EXPECT_EQ(events[2]->id, 5u);
    EXPECT_EQ(events[3]->id, 7u);
  }
}

}  // namespace
}  // namespace dlacep
