#include <gtest/gtest.h>

#include "algebra/schema.h"
#include "api/pathfinder.h"
#include "compiler/compile.h"
#include "engine/executor.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"
#include "runtime/serialize.h"

namespace pathfinder::compiler {
namespace {

/// Column id of `name` (tests name columns by string).
bat::ColId C(std::string_view name) { return bat::InternCol(name); }

class CompilerTest : public ::testing::Test {
 protected:
  frontend::ExprPtr Core(const std::string& q) {
    auto mod = frontend::ParseQuery(q);
    EXPECT_TRUE(mod.ok()) << mod.status().ToString();
    auto core = frontend::Normalize(*mod, {});
    EXPECT_TRUE(core.ok()) << core.status().ToString();
    return *core;
  }

  /// Compile without optimization and execute; returns the raw result
  /// table (iter, pos, item).
  bat::Table Exec(const std::string& q, CompileStats* stats = nullptr,
                  bool join_recognition = true) {
    CompileOptions opts;
    opts.join_recognition = join_recognition;
    auto plan = Compile(Core(q), &db_, opts, stats);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " for: " << q;
    ctx_ = std::make_unique<engine::QueryContext>(&db_);
    auto t = engine::Execute(*plan, ctx_.get());
    EXPECT_TRUE(t.ok()) << t.status().ToString() << " for: " << q;
    return t.ok() ? *t : bat::Table{};
  }

  xml::Database db_;
  std::unique_ptr<engine::QueryContext> ctx_;
};

// Paper Figure 3(g): the overall result of the nested iteration in
// scope s0 is ((110,210,120,220)) at iters 1, positions 1..4.
TEST_F(CompilerTest, PaperFigure3ResultEncoding) {
  bat::Table t =
      Exec("for $v in (10,20), $w in (100,200) return $v + $w");
  ASSERT_EQ(t.rows(), 4u);
  auto iter = t.GetCol(C("iter")).value()->ints();
  auto pos = t.GetCol(C("pos")).value()->ints();
  auto item = t.GetCol(C("item")).value()->items();
  EXPECT_EQ(iter, (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(pos, (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(item[0].AsInt(), 110);
  EXPECT_EQ(item[1].AsInt(), 210);
  EXPECT_EQ(item[2].AsInt(), 120);
  EXPECT_EQ(item[3].AsInt(), 220);
}

// Paper Figure 3(a): a literal sequence in the top-level scope s0 has
// constant iter 1 and positions 1..n.
TEST_F(CompilerTest, TopLevelSequenceEncoding) {
  bat::Table t = Exec("(10, 20)");
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.GetCol(C("iter")).value()->ints(),
            (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(t.GetCol(C("pos")).value()->ints(), (std::vector<int64_t>{1, 2}));
}

// Paper Figure 5 is for $v in (10,20) return $v + 100.
TEST_F(CompilerTest, PaperFigure5Result) {
  bat::Table t = Exec("for $v in (10,20) return $v + 100");
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[0].AsInt(), 110);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[1].AsInt(), 120);
}

TEST_F(CompilerTest, CompiledPlansValidate) {
  const char* queries[] = {
      "1",
      "(1, 2.5, \"x\")",
      "for $v in (1,2) where $v = 1 return $v",
      "if (1 = 1) then \"y\" else \"n\"",
      "count((1,2,3))",
      "sum(())",
      "let $x := (1,2) return ($x, $x)",
      "for $a in (1,2) for $b in (3,4) order by $b descending, $a "
      "return $a * $b",
      "typeswitch (5) case xs:integer return \"int\" default return \"o\"",
      "some $x in (1,2,3) satisfies $x = 2",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    auto plan = Compile(Core(q), &db_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(algebra::ValidatePlan(*plan).ok());
    EXPECT_EQ((*plan)->kind, algebra::OpKind::kSerialize);
  }
}

TEST_F(CompilerTest, EmptyForProducesEmptyResult) {
  EXPECT_EQ(Exec("for $v in () return $v + 1").rows(), 0u);
}

TEST_F(CompilerTest, LetOfEmptyStillEvaluatesReturn) {
  bat::Table t = Exec("let $v := () return count($v)");
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[0].AsInt(), 0);
}

TEST_F(CompilerTest, WhereFiltersIterations) {
  bat::Table t = Exec("for $v in (1,2,3,4) where $v > 2 return $v");
  ASSERT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[0].AsInt(), 3);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[1].AsInt(), 4);
}

TEST_F(CompilerTest, PositionalVariable) {
  bat::Table t = Exec("for $v at $i in (7,8,9) return $i * 10 + $v");
  ASSERT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[0].AsInt(), 17);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[2].AsInt(), 39);
}

TEST_F(CompilerTest, NestedFlworScopesMapBack) {
  bat::Table t = Exec(
      "for $a in (1,2) return (for $b in (10,20) return $a * $b)");
  ASSERT_EQ(t.rows(), 4u);
  auto items = t.GetCol(C("item")).value()->items();
  EXPECT_EQ(items[0].AsInt(), 10);
  EXPECT_EQ(items[1].AsInt(), 20);
  EXPECT_EQ(items[2].AsInt(), 20);
  EXPECT_EQ(items[3].AsInt(), 40);
}

TEST_F(CompilerTest, JoinRecognitionFiresOnWhereEquality) {
  CompileStats stats;
  Exec("for $a in (1,2,3) "
       "let $hits := for $b in (2,3,4) where $b = $a return $b "
       "return count($hits)",
       &stats);
  EXPECT_EQ(stats.joins_recognized, 1);
}

TEST_F(CompilerTest, JoinRecognitionOffCompilesSamePlanResult) {
  CompileStats on_stats, off_stats;
  bat::Table on = Exec(
      "for $a in (1,2,3) "
      "let $h := for $b in (2,3,4) where $b = $a return $b "
      "return count($h)",
      &on_stats, /*join_recognition=*/true);
  bat::Table off = Exec(
      "for $a in (1,2,3) "
      "let $h := for $b in (2,3,4) where $b = $a return $b "
      "return count($h)",
      &off_stats, /*join_recognition=*/false);
  EXPECT_EQ(on_stats.joins_recognized, 1);
  EXPECT_EQ(off_stats.joins_recognized, 0);
  ASSERT_EQ(on.rows(), off.rows());
  for (size_t i = 0; i < on.rows(); ++i) {
    EXPECT_EQ(on.GetCol(C("item")).value()->items()[i],
              off.GetCol(C("item")).value()->items()[i]);
  }
}

TEST_F(CompilerTest, ThetaJoinRecognition) {
  CompileStats stats;
  bat::Table t = Exec(
      "for $a in (10, 20, 30) "
      "let $smaller := for $b in (5, 15, 25) where $b < $a return $b "
      "return count($smaller)",
      &stats);
  EXPECT_EQ(stats.joins_recognized, 1);
  auto items = t.GetCol(C("item")).value()->items();
  EXPECT_EQ(items[0].AsInt(), 1);  // {5}
  EXPECT_EQ(items[1].AsInt(), 2);  // {5,15}
  EXPECT_EQ(items[2].AsInt(), 3);  // {5,15,25}
}

TEST_F(CompilerTest, OrderByReordersWithinIteration) {
  bat::Table t = Exec(
      "for $v in (3,1,2) order by $v descending return $v * 10");
  auto items = t.GetCol(C("item")).value()->items();
  EXPECT_EQ(items[0].AsInt(), 30);
  EXPECT_EQ(items[1].AsInt(), 20);
  EXPECT_EQ(items[2].AsInt(), 10);
}

TEST_F(CompilerTest, UnsupportedCoreConstructDiagnosed) {
  // Attribute constructor outside element content is a compile error.
  auto attr = frontend::MakeExpr(frontend::ExprKind::kAttrConstr);
  attr->sval = "x";
  auto r = Compile(attr, &db_);
  EXPECT_FALSE(r.ok());
}

// The paper reports plan sizes in the hundreds before optimization;
// check our compiler is in that regime for a join query (Q8-shaped).
TEST_F(CompilerTest, PlanSizesAreSubstantialBeforeOptimization) {
  ASSERT_TRUE(
      db_.LoadXml("s.xml", "<site><a id=\"1\"/><b ref=\"1\"/></site>")
          .ok());
  frontend::NormalizeOptions nopts;
  nopts.context_doc = "s.xml";
  auto mod = frontend::ParseQuery(
      "for $p in /site/a let $t := for $c in /site/b "
      "where $c/@ref = $p/@id return $c return count($t)");
  ASSERT_TRUE(mod.ok());
  auto core = frontend::Normalize(*mod, nopts);
  ASSERT_TRUE(core.ok());
  auto plan = Compile(*core, &db_);
  ASSERT_TRUE(plan.ok());
  size_t n = algebra::CountOps(*plan);
  EXPECT_GT(n, 40u);
  EXPECT_LT(n, 400u);
}

}  // namespace
}  // namespace pathfinder::compiler
