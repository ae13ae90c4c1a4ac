// Join-optimizer differential harness.
//
// The join-graph pass (PF_JOINOPT / QueryOptions::join_opt) — key-based
// distinct removal and selection pushdown through mapping joins —
// promises byte-identical serialized results to the untouched plan at
// every thread count. This suite locks that down three ways:
//
//   1. Every XMark query, join_opt on vs. off, at 1/2/7 threads.
//   2. Join-shape queries (multi-way value joins, literal filters,
//      theta joins, existential predicates), same matrix.
//   3. The pass must actually fire: the optimizer counters reported
//      for representative queries are pinned to be nonzero, so a
//      regression that silently disables the pass fails here, not in
//      the benchmarks.

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/pathfinder.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace pathfinder {
namespace {

xml::Database* Db() {
  static xml::Database* db = [] {
    auto* d = new xml::Database();
    auto doc = xmark::GenerateXMark(0.002, 42, d->pool());
    if (!doc.ok()) {
      ADD_FAILURE() << "XMark generation failed: "
                    << doc.status().ToString();
      return d;
    }
    d->AddDocument("auction.xml", std::move(*doc));
    return d;
  }();
  return db;
}

std::string RunConfig(const std::string& query, int join_opt, int threads,
                      opt::OptimizeStats* stats = nullptr) {
  Pathfinder pf(Db());
  QueryOptions opts;
  opts.context_doc = "auction.xml";
  opts.join_opt = join_opt;
  opts.num_threads = threads;
  auto r = pf.Run(query, opts);
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  if (stats != nullptr) *stats = r->opt_stats;
  auto s = r->Serialize();
  if (!s.ok()) return "<error: " + s.status().ToString() + ">";
  return *s;
}

void ExpectAllConfigsIdentical(const std::string& query) {
  // Baseline: join_opt off, serial — the untouched optimized plan.
  const std::string base = RunConfig(query, /*join_opt=*/0, /*threads=*/1);
  ASSERT_EQ(base.find("<error"), std::string::npos) << base;
  for (int threads : {1, 2, 7}) {
    EXPECT_EQ(RunConfig(query, /*join_opt=*/1, threads), base)
        << "join_opt=1 diverged at threads=" << threads;
    EXPECT_EQ(RunConfig(query, /*join_opt=*/0, threads), base)
        << "join_opt=0 diverged at threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// 1. XMark queries.

class XMarkJoinOptTest : public ::testing::TestWithParam<int> {};

TEST_P(XMarkJoinOptTest, JoinOptMatchesBaseline) {
  const xmark::XMarkQuery& q = xmark::GetXMarkQuery(GetParam());
  ExpectAllConfigsIdentical(q.text);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, XMarkJoinOptTest,
                         ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// 2. Join-shape queries: the plan patterns the pass rewrites.

struct JoinCase {
  const char* name;
  const char* query;
};

// Print a case by its name. gtest's default printer dumps the two
// pointers, whose values change with every run, and the test IDs
// that gtest_discover_tests records would change with them.
void PrintTo(const JoinCase& c, std::ostream* os) { *os << c.name; }

const JoinCase kJoinCases[] = {
    {"ThreeWayValueJoinLiteralOnItem",
     "for $p in /site/people/person "
     "for $a in /site/closed_auctions/closed_auction "
     "for $i in /site/regions/namerica/item "
     "where $a/buyer/@person = $p/@id and $a/itemref/@item = $i/@id "
     "and $i/payment = \"Creditcard\" "
     "return <r>{$p/name/text()}</r>"},
    {"ThreeWayValueJoinLiteralOnPerson",
     "for $a in /site/closed_auctions/closed_auction "
     "for $p in /site/people/person "
     "for $i in /site/regions//item "
     "where $p/@id = $a/buyer/@person and $i/@id = $a/itemref/@item "
     "and $p/profile/@income > 80000 "
     "return <r>{$i/name/text()}</r>"},
    {"PointLookup",
     "for $b in /site/people/person where $b/@id = \"person4\" "
     "return $b/profile/@income"},
    {"TwoWayJoinWithLiteral",
     "for $p in /site/people/person "
     "for $a in /site/closed_auctions/closed_auction "
     "where $a/buyer/@person = $p/@id and $p/@id = \"person1\" "
     "return <r>{$a/price/text()}</r>"},
    {"ThetaJoin",
     "for $p in /site/people/person "
     "for $i in /site/open_auctions/open_auction "
     "where $p/profile/@income > $i/initial return $p/name"},
    {"LiteralBothSidesOfAnd",
     "for $i in /site/regions//item "
     "where $i/payment = \"Creditcard\" and $i/quantity = \"2\" "
     "return $i/name/text()"},
    {"ExistentialJoin",
     "for $p in /site/people/person "
     "where some $w in /site/people/person/watches/watch/@open_auction "
     "satisfies $w = $p/@id return $p/name"},
    {"SelfJoinSameDoc",
     "for $a in /site/closed_auctions/closed_auction "
     "for $b in /site/closed_auctions/closed_auction "
     "where $a/buyer/@person = $b/seller/@person "
     "return <r>{$a/price/text()}</r>"},
};

class JoinShapeTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinShapeTest, JoinOptMatchesBaseline) {
  ExpectAllConfigsIdentical(GetParam().query);
}

INSTANTIATE_TEST_SUITE_P(Shapes, JoinShapeTest,
                         ::testing::ValuesIn(kJoinCases),
                         [](const ::testing::TestParamInfo<JoinCase>& i) {
                           return std::string(i.param.name);
                         });

// ---------------------------------------------------------------------------
// 3. The pass fires. These counters pin the rewrite reach on known
// shapes; update them deliberately when the pass is extended.

TEST(JoinOptFires, ClustersDetectedOnValueJoin) {
  opt::OptimizeStats st;
  std::string out = RunConfig(kJoinCases[0].query, 1, 1, &st);
  ASSERT_EQ(out.find("<error"), std::string::npos) << out;
  EXPECT_GT(st.key_distincts_removed, 0);
  EXPECT_GT(st.selects_pushed, 0);
}

TEST(JoinOptFires, SelectPushdownOnLiteralFilter) {
  // The literal comparison must be a *secondary* predicate: with a
  // single conjunct the compiler turns it into the value join itself
  // and there is no select to push.
  opt::OptimizeStats st;
  std::string out = RunConfig(kJoinCases[1].query, 1, 1, &st);
  ASSERT_EQ(out.find("<error"), std::string::npos) << out;
  EXPECT_GT(st.selects_pushed, 0);
}

TEST(JoinOptFires, OffMeansAllCountersZero) {
  opt::OptimizeStats st;
  std::string out = RunConfig(kJoinCases[0].query, 0, 1, &st);
  ASSERT_EQ(out.find("<error"), std::string::npos) << out;
  EXPECT_EQ(st.joins_reordered, 0);
  EXPECT_EQ(st.selects_pushed, 0);
  EXPECT_EQ(st.key_distincts_removed, 0);
}

}  // namespace
}  // namespace pathfinder
