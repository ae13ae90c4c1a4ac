#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algebra/hash.h"
#include "algebra/print.h"
#include "algebra/schema.h"
#include "api/pathfinder.h"
#include "compiler/compile.h"
#include "engine/executor.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"
#include "opt/optimize.h"
#include "runtime/serialize.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace pathfinder::opt {
namespace {

/// Column id of `name` (tests name columns by string).
bat::ColId C(std::string_view name) { return bat::InternCol(name); }

namespace alg = pathfinder::algebra;
using alg::OpPtr;

class OptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadXml("d.xml",
                            "<r><x k=\"1\">a</x><x k=\"2\">b</x>"
                            "<y ref=\"2\"/></r>")
                    .ok());
  }

  /// Compile unoptimized, optimize, check both plans produce the same
  /// result, and return the stats.
  OptimizeStats CheckPreserves(const std::string& q) {
    Pathfinder pf(&db_);
    QueryOptions o;
    o.context_doc = "d.xml";
    o.optimize = false;
    auto unopt = pf.Run(q, o);
    EXPECT_TRUE(unopt.ok()) << unopt.status().ToString() << " q=" << q;

    OptimizeStats stats;
    auto plan = Optimize(unopt->plan, &stats);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(alg::ValidatePlan(*plan).ok());
    EXPECT_LE(stats.ops_after, stats.ops_before);

    engine::QueryContext ctx(&db_);
    auto t = engine::Execute(*plan, &ctx);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    auto items = runtime::TableToSequence(*t);
    EXPECT_TRUE(items.ok());
    auto s1 = runtime::SerializeSequence(ctx, *items);
    auto s2 = unopt->Serialize();
    EXPECT_TRUE(s1.ok() && s2.ok());
    EXPECT_EQ(*s1, *s2) << "optimizer changed the result of: " << q;
    return stats;
  }

  xml::Database db_;
};

TEST_F(OptTest, ShrinksTypicalPlans) {
  const char* queries[] = {
      "for $v in (10,20) return $v + 100",
      "//x",
      "for $a in //x where $a/@k = \"1\" return $a/text()",
      "count(//x)",
      "for $a in //x order by $a/@k descending return <v>{ $a/text() }</v>",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    OptimizeStats stats = CheckPreserves(q);
    EXPECT_LT(stats.ops_after, stats.ops_before)
        << "no reduction for: " << q;
  }
}

TEST_F(OptTest, RemovesDistinctAfterStaircaseJoin) {
  // Build the ddo pattern directly: Distinct over a projected/rownum'd
  // staircase join output (the compiler emits Step without the Distinct
  // nowadays, but hand-written or older plans still carry it).
  namespace a = alg;
  OpPtr ctxt = a::LitTable({C("iter"), C("item")},
                           {bat::ColType::kInt, bat::ColType::kItem},
                           {{Item::Int(1), Item::Node(0, 0)}});
  OpPtr step = a::Step(ctxt, accel::Axis::kDescendant,
                       accel::NodeTest::AnyKind());
  OpPtr rn = a::RowNum(step, C("pos"), {C("iter")}, {C("item")});
  OpPtr prj = a::Project(rn, {{C("iter"), C("iter")}, {C("item"), C("item")}});
  OpPtr dist = a::Distinct(prj, {C("iter"), C("item")});
  OptimizeStats stats;
  auto opt = Optimize(dist, &stats);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  EXPECT_GE(stats.distincts_removed, 1);
}

TEST_F(OptTest, FusesProjections) {
  OptimizeStats stats =
      CheckPreserves("for $v in (1,2,3) return $v * 2");
  EXPECT_GE(stats.projections_fused, 1);
}

TEST_F(OptTest, ResultPreservedOnWholeCorpus) {
  const char* queries[] = {
      "(1, \"a\", 2.5)",
      "for $a in //x, $b in //y return ($a/@k, $b/@ref)",
      "if (//y) then count(//x) else 0",
      "sum(//x/@k)",
      "for $a in //x let $m := for $b in //y "
      "where $b/@ref = $a/@k return $b return count($m)",
      "<wrap>{ //x[1] }</wrap>",
      "typeswitch (//x[1]) case element() return 1 default return 0",
      "distinct-values((//x/@k, \"1\"))",
      "some $a in //x satisfies $a/@k = \"2\"",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    CheckPreserves(q);
  }
}

TEST_F(OptTest, IdempotentFixpoint) {
  Pathfinder pf(&db_);
  QueryOptions o;
  o.context_doc = "d.xml";
  o.optimize = false;
  auto r = pf.Run("for $a in //x where $a/@k = \"1\" return $a", o);
  ASSERT_TRUE(r.ok());
  OptimizeStats s1, s2;
  auto p1 = Optimize(r->plan, &s1);
  ASSERT_TRUE(p1.ok());
  auto p2 = Optimize(*p1, &s2);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(s2.ops_before, s2.ops_after);
}

TEST_F(OptTest, StatsReportBeforeAfter) {
  Pathfinder pf(&db_);
  QueryOptions o;
  o.context_doc = "d.xml";
  auto r = pf.Run("//x", o);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->opt_stats.ops_before, 0u);
  EXPECT_GT(r->opt_stats.ops_after, 0u);
  EXPECT_LE(r->opt_stats.ops_after, r->opt_stats.ops_before);
}

// --- CSE / DAG-ification --------------------------------------------------

namespace a = alg;

/// A small pure subtree built FRESH on every call: the returned nodes
/// are structurally identical across calls but share no pointers, so
/// only structural hashing (never pointer identity) can discover the
/// duplication.
OpPtr FreshScanSubtree() {
  OpPtr lit = a::LitTable({C("iter"), C("item")},
                          {bat::ColType::kInt, bat::ColType::kItem},
                          {{Item::Int(1), Item::Node(0, 0)}});
  OpPtr step = a::Step(lit, accel::Axis::kDescendant,
                       accel::NodeTest::AnyKind());
  return a::RowNum(step, C("pos"), {C("iter")}, {C("item")});
}

OpPtr FreshItemPair() {
  return a::LitTable(
      {C("iter"), C("x"), C("y")},
      {bat::ColType::kInt, bat::ColType::kItem, bat::ColType::kItem},
      {{Item::Int(1), Item::Int(2), Item::Int(3)}});
}

TEST_F(OptTest, CseMergesHashEqualSubtrees) {
  OpPtr u = a::DisjointUnion(FreshScanSubtree(), FreshScanSubtree());
  size_t before = a::CountOps(u);
  int merges = 0;
  auto merged = CseMerge(u, &merges);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // The duplicated 3-node chain collapses onto one shared subtree...
  EXPECT_EQ(merges, 3);
  EXPECT_EQ(a::CountOps(*merged), before - 3);
  // ...and both union inputs are now the *same* node.
  EXPECT_EQ((*merged)->children[0].get(), (*merged)->children[1].get());
}

TEST_F(OptTest, CseFoldsCommutativeOperandOrder) {
  // x + y and y + x denote the same column; sub does not commute.
  OpPtr add1 =
      a::MapFun2(FreshItemPair(), a::Fun2::kAdd, C("x"), C("y"), C("s"));
  OpPtr add2 =
      a::MapFun2(FreshItemPair(), a::Fun2::kAdd, C("y"), C("x"), C("s"));
  OpPtr u = a::DisjointUnion(add1, add2);
  int merges = 0;
  auto merged = CseMerge(u, &merges);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ((*merged)->children[0].get(), (*merged)->children[1].get());

  OpPtr sub1 =
      a::MapFun2(FreshItemPair(), a::Fun2::kSub, C("x"), C("y"), C("s"));
  OpPtr sub2 =
      a::MapFun2(FreshItemPair(), a::Fun2::kSub, C("y"), C("x"), C("s"));
  OpPtr u2 = a::DisjointUnion(sub1, sub2);
  merges = 0;
  auto merged2 = CseMerge(u2, &merges);
  ASSERT_TRUE(merged2.ok()) << merged2.status().ToString();
  // The shared literal input merges; the swapped subtractions must not.
  EXPECT_NE((*merged2)->children[0].get(), (*merged2)->children[1].get());
  EXPECT_EQ((*merged2)->children[0]->children[0].get(),
            (*merged2)->children[1]->children[0].get());
}

TEST_F(OptTest, CseComparesAttachValues) {
  OpPtr at1 = a::Attach(FreshItemPair(), C("c"), bat::ColType::kInt,
                        Item::Int(7));
  OpPtr at2 = a::Attach(FreshItemPair(), C("c"), bat::ColType::kInt,
                        Item::Int(7));
  auto same = CseMerge(a::DisjointUnion(at1, at2));
  ASSERT_TRUE(same.ok());
  EXPECT_EQ((*same)->children[0].get(), (*same)->children[1].get());

  OpPtr at3 = a::Attach(FreshItemPair(), C("c"), bat::ColType::kInt,
                        Item::Int(7));
  OpPtr at4 = a::Attach(FreshItemPair(), C("c"), bat::ColType::kInt,
                        Item::Int(8));
  auto diff = CseMerge(a::DisjointUnion(at3, at4));
  ASSERT_TRUE(diff.ok());
  EXPECT_NE((*diff)->children[0].get(), (*diff)->children[1].get());
}

TEST_F(OptTest, CseDistinguishesColumnRenamings) {
  // π with the same output name from different sources stays distinct;
  // the same renaming merges.
  OpPtr pa = a::Project(FreshItemPair(),
                        {{C("iter"), C("iter")}, {C("v"), C("x")}});
  OpPtr pb = a::Project(FreshItemPair(),
                        {{C("iter"), C("iter")}, {C("v"), C("y")}});
  auto diff = CseMerge(a::DisjointUnion(pa, pb));
  ASSERT_TRUE(diff.ok());
  EXPECT_NE((*diff)->children[0].get(), (*diff)->children[1].get());

  OpPtr pc = a::Project(FreshItemPair(),
                        {{C("iter"), C("iter")}, {C("v"), C("x")}});
  OpPtr pd = a::Project(FreshItemPair(),
                        {{C("iter"), C("iter")}, {C("v"), C("x")}});
  auto same = CseMerge(a::DisjointUnion(pc, pd));
  ASSERT_TRUE(same.ok());
  EXPECT_EQ((*same)->children[0].get(), (*same)->children[1].get());
}

TEST_F(OptTest, CseLeavesInputPlanUntouched) {
  OpPtr u = a::DisjointUnion(FreshScanSubtree(), FreshScanSubtree());
  size_t before = a::CountOps(u);
  auto merged = CseMerge(u);
  ASSERT_TRUE(merged.ok());
  // Clone-on-change: the original DAG still holds both copies.
  EXPECT_EQ(a::CountOps(u), before);
  EXPECT_NE(u->children[0].get(), u->children[1].get());
}

TEST_F(OptTest, CseFiresOnRepeatedSubexpressions) {
  // Loop-lifting compiles each textual occurrence separately; CSE must
  // find the repetition and the result must not change.
  Pathfinder pf(&db_);
  QueryOptions on;
  on.context_doc = "d.xml";
  on.cse = 1;
  auto r_on = pf.Run("(count(//x), count(//x))", on);
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  EXPECT_GT(r_on->opt_stats.cse_merges, 0);

  QueryOptions off = on;
  off.cse = 0;
  off.plan_cache = 0;  // distinct plans, not a cache round-trip
  off.subplan_cache = 0;
  auto r_off = pf.Run("(count(//x), count(//x))", off);
  ASSERT_TRUE(r_off.ok());
  EXPECT_EQ(r_off->opt_stats.cse_merges, 0);
  EXPECT_LE(r_on->opt_stats.ops_after, r_off->opt_stats.ops_after);
  auto s_on = r_on->Serialize();
  auto s_off = r_off->Serialize();
  ASSERT_TRUE(s_on.ok() && s_off.ok());
  EXPECT_EQ(*s_on, *s_off);
}

TEST_F(OptTest, StatsResetBetweenOptimizeCalls) {
  // One reused struct must never leak counts from a previous plan.
  Pathfinder pf(&db_);
  QueryOptions o;
  o.context_doc = "d.xml";
  o.optimize = false;
  auto r = pf.Run("(count(//x), count(//x))", o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  OptimizeStats stats;
  ASSERT_TRUE(Optimize(r->plan, &stats).ok());
  EXPECT_GE(stats.cse_merges, 1);

  OpPtr trivial = a::LitTable({C("iter")}, {bat::ColType::kInt},
                              {{Item::Int(1)}});
  ASSERT_TRUE(Optimize(trivial, &stats).ok());
  EXPECT_EQ(stats.cse_merges, 0);
  EXPECT_EQ(stats.ops_before, 1u);
}

// Per-query optimizer counts and plan digests for XMark Q1–Q20 on one
// fixed document (sf 0.002, seed 1) with every pass on. The digest is
// PlanDigest of the optimized plan: op ids come from a global counter,
// so they are renumbered by first appearance before hashing. Counts
// alone can match two different plans; the digest pins the plan text
// itself. Fixpoint rounds may only fall.
struct PinnedStats {
  int query;
  size_t ops_before, ops_after;
  int cse_merges, distincts_removed, structural_answers, max_rounds;
  const char* digest;
};

/// FNV-1a of PlanToText(plan) with every "#<id>" / "^<id>" renumbered
/// in order of first appearance, as 16 hex digits.
std::string PlanDigest(const OpPtr& plan, const StringPool& pool) {
  const std::string text = alg::PlanToText(plan, pool);
  std::string canon;
  std::unordered_map<std::string, int> ids;
  for (size_t i = 0; i < text.size();) {
    char c = text[i];
    bool marker = (c == '#' || c == '^') &&
                  (i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n');
    size_t j = i + 1;
    while (marker && j < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (!marker || j == i + 1) {
      canon += c;
      ++i;
      continue;
    }
    auto [it, fresh] = ids.emplace(text.substr(i + 1, j - i - 1),
                                   static_cast<int>(ids.size()));
    (void)fresh;
    canon += c;
    canon += std::to_string(it->second);
    i = j;
  }
  uint64_t h = 0xCBF29CE484222325ull;
  for (char ch : canon) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Parse, normalize, compile and optimize XMark query `q` over
/// "auction.xml" with every optimizer pass on, as Pathfinder::Run does
/// by default (but independent of the PF_* variables).
Result<OpPtr> OptimizedXMarkPlan(xml::Database* db, int q,
                                 OptimizeStats* stats = nullptr) {
  PF_ASSIGN_OR_RETURN(frontend::Module mod,
                      frontend::ParseQuery(xmark::GetXMarkQuery(q).text));
  frontend::NormalizeOptions no;
  no.context_doc = "auction.xml";
  PF_ASSIGN_OR_RETURN(frontend::ExprPtr core, frontend::Normalize(mod, no));
  PF_ASSIGN_OR_RETURN(OpPtr plan,
                      compiler::Compile(core, db, compiler::CompileOptions{}));
  OptimizeOptions oo;
  oo.cse = true;
  oo.path_summary = true;
  return Optimize(plan, stats, oo);
}

constexpr PinnedStats kXMarkStats[] = {
    // Q, ops_before, ops_after, cse, distincts, structural, rounds,
    // plan digest
    {1, 85, 59, 0, 0, 1, 2, "16685f5a1f2a2151"},
    {2, 104, 74, 0, 0, 1, 2, "b9d916d1890d1f07"},
    {3, 366, 284, 5, 0, 1, 3, "a0e1d61d2df7b538"},
    {4, 207, 145, 1, 0, 1, 2, "53e93d492140c4d6"},
    {5, 70, 44, 1, 0, 1, 2, "4d85fa763640cbf7"},
    {6, 40, 26, 0, 0, 1, 2, "7f1d62c840104315"},
    {7, 76, 60, 2, 0, 0, 2, "6e56d19431c6c013"},
    {8, 133, 84, 5, 0, 2, 2, "221bd6211bc5bf6b"},
    {9, 206, 121, 9, 0, 3, 2, "a7f1643b61ae7397"},
    {10, 330, 221, 23, 0, 2, 2, "0177c7d48d17daa1"},
    {11, 148, 94, 5, 0, 2, 2, "218c7d0d6f83c050"},
    {12, 175, 113, 6, 0, 2, 2, "1b0e4c9e92b1f6c3"},
    {13, 75, 50, 1, 0, 1, 2, "92f858b5eca21b56"},
    {14, 75, 57, 1, 0, 1, 2, "da01a87af26ec60f"},
    {15, 82, 30, 0, 0, 1, 2, "f6fab9b786bfd823"},
    {16, 111, 81, 1, 0, 1, 2, "e4cad3167dd05b40"},
    {17, 78, 56, 1, 0, 1, 2, "35f08414b0131436"},
    {18, 52, 31, 0, 0, 1, 2, "24e4c753da22892e"},
    {19, 93, 66, 3, 0, 1, 2, "3f93fb20b567809d"},
    {20, 360, 240, 20, 0, 4, 3, "61ae40c9351689bb"},
};

TEST(OptXMarkTest, SamePlansAsPinned) {
  xml::Database db;
  auto doc = xmark::GenerateXMark(0.002, 1, db.pool());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  db.AddDocument("auction.xml", std::move(*doc));
  for (const PinnedStats& want : kXMarkStats) {
    SCOPED_TRACE("Q" + std::to_string(want.query));
    Pathfinder pf(&db);
    QueryOptions o;
    o.context_doc = "auction.xml";
    // What Run uses when no PF_* variable is set, spelled out so the
    // CI lanes that switch passes off ambiently leave the counts alone.
    o.cse = 1;
    o.path_summary = 1;
    o.plan_cache = 0;
    o.subplan_cache = 0;
    auto r = pf.Run(xmark::GetXMarkQuery(want.query).text, o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const OptimizeStats& s = r->opt_stats;
    EXPECT_EQ(s.ops_before, want.ops_before);
    EXPECT_EQ(s.ops_after, want.ops_after);
    EXPECT_EQ(s.cse_merges, want.cse_merges);
    EXPECT_EQ(s.distincts_removed, want.distincts_removed);
    EXPECT_EQ(s.structural_answers, want.structural_answers);
    EXPECT_LE(s.rounds, want.max_rounds);
    OptimizeStats direct;
    auto plan = OptimizedXMarkPlan(&db, want.query, &direct);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(direct.ops_after, want.ops_after);
    EXPECT_EQ(PlanDigest(*plan, *db.pool()), want.digest);
  }
}

// Compiling and optimizing one query twice yields structurally equal
// plans: nothing the optimizer names depends on process-global state
// such as op ids, so a recompiled plan finds the subplan results
// cached under the first compilation's hashes.
TEST(OptXMarkTest, RecompiledPlansHashAlike) {
  xml::Database db;
  auto doc = xmark::GenerateXMark(0.002, 1, db.pool());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  db.AddDocument("auction.xml", std::move(*doc));
  for (int q = 1; q <= 20; ++q) {
    SCOPED_TRACE("Q" + std::to_string(q));
    auto a = OptimizedXMarkPlan(&db, q);
    auto b = OptimizedXMarkPlan(&db, q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(alg::StructuralHash(*a), alg::StructuralHash(*b));
  }
}

// Eight threads compile and optimize Q1–Q20 at once; each plan is the
// one a serial compilation yields. Every compiling thread interns
// column names into one process-wide dictionary (the CI TSan job runs
// this test).
TEST(OptXMarkTest, ConcurrentCompilesMatchSerial) {
  xml::Database db;
  auto doc = xmark::GenerateXMark(0.002, 1, db.pool());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  db.AddDocument("auction.xml", std::move(*doc));
  std::vector<std::string> serial;
  for (int q = 1; q <= 20; ++q) {
    auto plan = OptimizedXMarkPlan(&db, q);
    ASSERT_TRUE(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
    serial.push_back(PlanDigest(*plan, *db.pool()));
  }
  constexpr int kThreads = 8;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        int q = 1 + (i + 3 * t) % 20;  // each thread starts elsewhere
        auto plan = OptimizedXMarkPlan(&db, q);
        got[t].push_back(plan.ok() ? std::to_string(q) + ":" +
                                         PlanDigest(*plan, *db.pool())
                                   : plan.status().ToString());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), 20u);
    for (int i = 0; i < 20; ++i) {
      int q = 1 + (i + 3 * t) % 20;
      EXPECT_EQ(got[t][i], std::to_string(q) + ":" + serial[q - 1])
          << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace pathfinder::opt
