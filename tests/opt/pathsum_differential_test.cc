// Path-summary differential harness.
//
// Path summaries (PF_PATHSUM / QueryOptions::path_summary) change two
// layers — the structural-chain rewrite to kPathScan and
// partition-pruned staircase joins — and both promise byte-identical
// serialized results to the summary-free plan at every thread count.
// This suite locks that down:
//
//   1. Every XMark query, path_summary on vs. off, at 1/2/7 threads.
//   2. Axis-shape queries covering every staircase-join axis (including
//      the partition fast paths: descendant, descendant-or-self,
//      following, preceding), same matrix.
//   3. The machinery actually fires: rewrite and pruning counters for
//      representative queries are pinned nonzero, and off means zero.

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

std::string RunConfig(const std::string& query, int path_summary, int threads,
                      QueryResult* result = nullptr) {
  Pathfinder pf(Db());
  QueryOptions opts;
  opts.context_doc = "auction.xml";
  opts.path_summary = path_summary;
  opts.num_threads = threads;
  // Both settings must compile fresh: a cached plan would hide a
  // divergence (the cache key does include the knob, but we want the
  // rewrite to actually run in every configuration).
  opts.plan_cache = 0;
  opts.subplan_cache = 0;
  auto r = pf.Run(query, opts);
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  auto s = r->Serialize();
  if (!s.ok()) return "<error: " + s.status().ToString() + ">";
  if (result != nullptr) *result = std::move(*r);
  return *s;
}

void ExpectAllConfigsIdentical(const std::string& query) {
  // Baseline: summaries off, serial — the untouched plan and scan.
  const std::string base = RunConfig(query, /*path_summary=*/0, /*threads=*/1);
  ASSERT_EQ(base.find("<error"), std::string::npos) << base;
  for (int threads : {1, 2, 7}) {
    EXPECT_EQ(RunConfig(query, /*path_summary=*/1, threads), base)
        << "path_summary=1 diverged at threads=" << threads;
    EXPECT_EQ(RunConfig(query, /*path_summary=*/0, threads), base)
        << "path_summary=0 diverged at threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// 1. XMark queries.

class XMarkPathSumTest : public ::testing::TestWithParam<int> {};

TEST_P(XMarkPathSumTest, PathSummaryMatchesBaseline) {
  const xmark::XMarkQuery& q = xmark::GetXMarkQuery(GetParam());
  ExpectAllConfigsIdentical(q.text);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, XMarkPathSumTest,
                         ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// 2. Axis shapes: one query per staircase axis, plus chains that mix
// the rewritten structural prefix with non-structural suffixes.

struct AxisCase {
  const char* name;
  const char* query;
};

// Print a case by its name. gtest's default printer dumps the two
// pointers, whose values change with every run, and the test IDs
// that gtest_discover_tests records would change with them.
void PrintTo(const AxisCase& c, std::ostream* os) { *os << c.name; }

const AxisCase kAxisCases[] = {
    {"ChildChain", "/site/regions/africa/item/name"},
    {"ChildWildcard", "/site/regions/*/item"},
    {"DescendantName", "//keyword"},
    {"DescendantFromContext", "/site/open_auctions//bidder"},
    {"DescendantOrSelf", "//open_auction/descendant-or-self::annotation"},
    {"SelfAxis", "/site/people/person/self::person/name"},
    {"ParentAxis", "//name/parent::item"},
    {"AncestorAxis", "//keyword/ancestor::item/name"},
    {"AncestorOrSelf", "//keyword/ancestor-or-self::description"},
    {"FollowingAxis", "/site/regions/africa/following::person/name"},
    {"PrecedingAxis", "/site/people/person[1]/preceding::item/name"},
    {"FollowingSibling", "/site/regions/africa/following-sibling::asia/item"},
    {"PrecedingSibling", "/site/regions/asia/preceding-sibling::africa/item"},
    {"AttributeAxis", "//item/@id"},
    {"AttributeWildcard", "/site/people/person/@*"},
    {"TextSuffix", "/site/people/person/name/text()"},
    {"NodeSuffix", "/site/regions/africa/item/node()"},
    {"PredicateOnChain", "/site/regions/africa/item[@id]/name"},
    {"CountAggregate", "count(//item)"},
    {"MixedRecursive", "//parlist//text"},
};

class AxisShapeTest : public ::testing::TestWithParam<AxisCase> {};

TEST_P(AxisShapeTest, PathSummaryMatchesBaseline) {
  ExpectAllConfigsIdentical(GetParam().query);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AxisShapeTest,
                         ::testing::ValuesIn(kAxisCases),
                         [](const ::testing::TestParamInfo<AxisCase>& i) {
                           return std::string(i.param.name);
                         });

// ---------------------------------------------------------------------------
// 3. The machinery fires. Counters pin the reach on known shapes;
// update deliberately when the rewrite or fast paths are extended.

TEST(PathSumFires, StructuralChainCollapsesToPathScan) {
  QueryResult res;
  std::string out =
      RunConfig("/site/regions/africa/item", 1, 1, &res);
  ASSERT_EQ(out.find("<error"), std::string::npos) << out;
  // The optimizer collapsed the chain...
  EXPECT_GT(res.opt_stats.structural_answers, 0);
  // ...and the executor answered it from partitions alone.
  EXPECT_GT(res.scj_stats.structural_answers, 0u);
}

TEST(PathSumFires, PartitionPruningOnDescendantScan) {
  // `$i//keyword` runs a descendant staircase join from non-root
  // contexts: not rewritable, but the scan prunes to the keyword
  // partitions.
  QueryResult res;
  std::string out = RunConfig(
      "for $i in /site/regions/africa/item return count($i//keyword)", 1, 1,
      &res);
  ASSERT_EQ(out.find("<error"), std::string::npos) << out;
  EXPECT_GT(res.scj_stats.path_partitions_pruned, 0u);
}

TEST(PathSumFires, OffMeansAllCountersZero) {
  QueryResult res;
  std::string out = RunConfig(
      "for $i in /site/regions/africa/item return count($i//keyword)", 0, 1,
      &res);
  ASSERT_EQ(out.find("<error"), std::string::npos) << out;
  EXPECT_EQ(res.opt_stats.structural_answers, 0);
  EXPECT_EQ(res.scj_stats.structural_answers, 0u);
  EXPECT_EQ(res.scj_stats.path_partitions_pruned, 0u);
}

}  // namespace
}  // namespace pathfinder
