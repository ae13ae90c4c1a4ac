#include <gtest/gtest.h>

#include "algebra/op.h"
#include "algebra/print.h"
#include "algebra/schema.h"
#include "base/string_pool.h"

namespace pathfinder::algebra {
namespace {

/// Column id of `name` (tests name columns by string).
bat::ColId C(std::string_view name) { return bat::InternCol(name); }

OpPtr Loop1() {
  return LitTable({C("iter")}, {bat::ColType::kInt}, {{Item::Int(1)}});
}

TEST(OpTest, CountOpsCountsDagNodesOnce) {
  OpPtr shared = Loop1();
  OpPtr a = Attach(shared, C("pos"), bat::ColType::kInt, Item::Int(1));
  OpPtr b = Attach(shared, C("pos"), bat::ColType::kInt, Item::Int(2));
  OpPtr u = DisjointUnion(a, b);
  EXPECT_EQ(CountOps(u), 4u);  // shared counted once
}

TEST(OpTest, TopoOrderChildrenFirst) {
  OpPtr lit = Loop1();
  OpPtr att = Attach(lit, C("pos"), bat::ColType::kInt, Item::Int(1));
  OpPtr prj = Project(att, {{C("iter"), C("iter")}});
  auto order = TopoOrder(prj);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], lit.get());
  EXPECT_EQ(order[2], prj.get());
}

TEST(OpTest, NumberPlanIsTopoOrderWithIndex) {
  OpPtr shared = Loop1();
  OpPtr a = Attach(shared, C("pos"), bat::ColType::kInt, Item::Int(1));
  OpPtr b = Attach(shared, C("pos"), bat::ColType::kInt, Item::Int(2));
  OpPtr u = DisjointUnion(a, b);
  PlanNumbering plan = NumberPlan(u);
  EXPECT_EQ(plan.nodes, TopoOrder(u));
  ASSERT_EQ(plan.index.size(), plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    EXPECT_EQ(plan.IndexOf(plan.nodes[i]), i);
  }
  EXPECT_EQ(plan.nodes.back(), u.get());
}

TEST(OpTest, TopoOrderSurvivesDeepChains) {
  OpPtr cur = Loop1();
  for (int i = 0; i < 50000; ++i) {
    cur = Project(cur, {{C("iter"), C("iter")}});
  }
  EXPECT_EQ(CountOps(cur), 50001u);
}

TEST(SchemaTest, InferSimplePlan) {
  OpPtr plan = Attach(
      Attach(Loop1(), C("pos"), bat::ColType::kInt, Item::Int(1)), C("item"),
      bat::ColType::kItem, Item::Int(10));
  auto s = InferSchemas(plan);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->ToString(), "iter:int | pos:int | item:item");
}

TEST(SchemaTest, MemoizedSubtreesAreNotRewalked) {
  // The child's own subtree is invalid (π of an unknown column), but a
  // memoized node is trusted: inference stops there.
  OpPtr bad = Project(Loop1(), {{C("iter"), C("nope")}});
  OpPtr child = Attach(bad, C("pos"), bat::ColType::kInt, Item::Int(1));
  OpPtr parent = Project(child, {{C("iter"), C("iter")}});
  SchemaMap memo;
  Schema seeded;
  seeded.cols = {{bat::kIter, bat::ColType::kInt},
                 {bat::kPos, bat::ColType::kInt}};
  memo.Insert(child.get(), seeded);
  auto s = InferSchemas(parent, &memo);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->ToString(), "iter:int");
  EXPECT_EQ(memo.size(), 2u);  // the seeded child plus the parent
  EXPECT_TRUE(memo.Contains(parent.get()));

  // Without the memo the whole plan is checked, as ValidatePlan does.
  SchemaMap empty;
  auto full = InferSchemas(parent, &empty);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(ValidatePlan(parent).ok());
}

TEST(SchemaTest, RetainSchemasKeepsOnlyThePlansNodes) {
  OpPtr lit = Loop1();
  OpPtr att = Attach(lit, C("pos"), bat::ColType::kInt, Item::Int(1));
  OpPtr other = Project(lit, {{C("i"), C("iter")}});
  SchemaMap memo;
  ASSERT_TRUE(InferSchemas(att, &memo).ok());
  ASSERT_TRUE(InferSchemas(other, &memo).ok());
  EXPECT_EQ(memo.size(), 3u);
  RetainSchemas(NumberPlan(att), &memo);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_TRUE(memo.Contains(lit.get()));
  EXPECT_TRUE(memo.Contains(att.get()));
}

TEST(SchemaTest, RejectsUnknownColumn) {
  OpPtr bad = Select(Loop1(), C("nope"));
  EXPECT_FALSE(ValidatePlan(bad).ok());
}

TEST(SchemaTest, RejectsNonBoolPredicate) {
  OpPtr bad = Select(Loop1(), C("iter"));
  EXPECT_FALSE(ValidatePlan(bad).ok());
}

TEST(SchemaTest, RejectsJoinNameClash) {
  OpPtr bad = EquiJoin(Loop1(), Loop1(), C("iter"), C("iter"));
  EXPECT_FALSE(ValidatePlan(bad).ok());
}

TEST(SchemaTest, JoinConcatenatesSchemas) {
  OpPtr right = Project(Loop1(), {{C("iter2"), C("iter")}});
  OpPtr j = EquiJoin(Loop1(), right, C("iter"), C("iter2"));
  auto s = InferSchemas(j);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->ToString(), "iter:int | iter2:int");
}

TEST(SchemaTest, RejectsUnionWidthMismatch) {
  OpPtr wide = Attach(Loop1(), C("x"), bat::ColType::kInt, Item::Int(0));
  EXPECT_FALSE(ValidatePlan(DisjointUnion(Loop1(), wide)).ok());
}

TEST(SchemaTest, RejectsDuplicateProjection) {
  OpPtr bad = Project(Loop1(), {{C("a"), C("iter")}, {C("a"), C("iter")}});
  EXPECT_FALSE(ValidatePlan(bad).ok());
}

TEST(SchemaTest, RejectsRowNumClash) {
  OpPtr bad = RowNum(Loop1(), C("iter"), {}, {});
  EXPECT_FALSE(ValidatePlan(bad).ok());
}

TEST(SchemaTest, RejectsBadLitTable) {
  // Row width mismatch.
  OpPtr bad = LitTable({C("a"), C("b")},
                       {bat::ColType::kInt, bat::ColType::kInt},
                       {{Item::Int(1)}});
  EXPECT_FALSE(ValidatePlan(bad).ok());
}

TEST(SchemaTest, StepRequiresIterItem) {
  OpPtr bad = Step(Loop1(), accel::Axis::kChild, accel::NodeTest::AnyKind());
  EXPECT_FALSE(ValidatePlan(bad).ok());
}

TEST(SchemaTest, Fun2TypeChecks) {
  OpPtr ipi = Attach(
      Attach(Loop1(), C("pos"), bat::ColType::kInt, Item::Int(1)), C("item"),
      bat::ColType::kItem, Item::Int(10));
  // and on ITEM columns is invalid
  OpPtr bad = MapFun2(ipi, Fun2::kAnd, C("item"), C("item"), C("b"));
  EXPECT_FALSE(ValidatePlan(bad).ok());
  // arithmetic on ITEM is fine
  OpPtr ok = MapFun2(ipi, Fun2::kAdd, C("item"), C("item"), C("sum"));
  EXPECT_TRUE(ValidatePlan(ok).ok());
}

TEST(PrintTest, LabelsIncludeParameters) {
  StringPool pool;
  OpPtr rn = RowNum(Loop1(), C("pos"), {C("iter")}, {});
  EXPECT_EQ(OpLabel(*rn, pool), "rownum pos:<iter>");
  OpPtr st = Step(
      Project(Loop1(), {{C("iter"), C("iter")}}),
      accel::Axis::kDescendant, accel::NodeTest::Name(pool.Intern("item")));
  EXPECT_EQ(OpLabel(*st, pool), "scjoin descendant::item");
}

TEST(PrintTest, TextShowsSharingMarkers) {
  StringPool pool;
  OpPtr shared = Loop1();
  OpPtr u = DisjointUnion(Project(shared, {{C("iter"), C("iter")}}),
                          Project(shared, {{C("iter"), C("iter")}}));
  std::string text = PlanToText(u, pool);
  // The shared literal appears once in full and once as a ^ref.
  EXPECT_NE(text.find("^"), std::string::npos);
}

TEST(PrintTest, DotIsWellFormed) {
  StringPool pool;
  OpPtr plan = Serialize(Attach(
      Attach(Loop1(), C("pos"), bat::ColType::kInt, Item::Int(1)), C("item"),
      bat::ColType::kItem, Item::Int(10)));
  std::string dot = PlanToDot(plan, pool);
  EXPECT_EQ(dot.find("digraph plan {"), 0u);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

}  // namespace
}  // namespace pathfinder::algebra
