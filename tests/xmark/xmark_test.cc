#include <string>

#include <gtest/gtest.h>

#include "api/pathfinder.h"
#include "baseline/interp.h"
#include "xmark/generator.h"
#include "join_shapes.h"
#include "xmark/queries.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace pathfinder::xmark {
namespace {

TEST(XMarkCountsTest, ScalesLinearly) {
  XMarkCounts c1 = XMarkCounts::ForScaleFactor(1.0);
  EXPECT_EQ(c1.items, 21750);
  EXPECT_EQ(c1.people, 25500);
  EXPECT_EQ(c1.open_auctions, 12000);
  EXPECT_EQ(c1.closed_auctions, 9750);
  EXPECT_EQ(c1.categories, 1000);
  XMarkCounts c01 = XMarkCounts::ForScaleFactor(0.1);
  EXPECT_EQ(c01.items, 2175);
  // Tiny scale factors still produce at least one of each entity.
  XMarkCounts tiny = XMarkCounts::ForScaleFactor(0.0000001);
  EXPECT_GE(tiny.people, 1);
}

TEST(XMarkGeneratorTest, DeterministicForSeed) {
  StringPool p1, p2;
  auto d1 = GenerateXMark(0.001, 7, &p1);
  auto d2 = GenerateXMark(0.001, 7, &p2);
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_EQ(d1->num_nodes(), d2->num_nodes());
  EXPECT_EQ(xml::SerializeDocument(*d1, p1),
            xml::SerializeDocument(*d2, p2));
}

TEST(XMarkGeneratorTest, DifferentSeedsDiffer) {
  StringPool p1, p2;
  auto d1 = GenerateXMark(0.001, 7, &p1);
  auto d2 = GenerateXMark(0.001, 8, &p2);
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_NE(xml::SerializeDocument(*d1, p1),
            xml::SerializeDocument(*d2, p2));
}

TEST(XMarkGeneratorTest, ValidEncoding) {
  StringPool pool;
  auto doc = GenerateXMark(0.005, 42, &pool);
  ASSERT_TRUE(doc.ok());
  std::string err;
  EXPECT_TRUE(doc->Validate(&err)) << err;
}

TEST(XMarkGeneratorTest, SchemaLandmarksPresent) {
  xml::Database db;
  auto doc = GenerateXMark(0.002, 1, db.pool());
  ASSERT_TRUE(doc.ok());
  db.AddDocument("a.xml", std::move(*doc));
  Pathfinder pf(&db);
  QueryOptions o;
  o.context_doc = "a.xml";
  auto count = [&](const std::string& q) -> int64_t {
    auto r = pf.Run("count(" + q + ")", o);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " " << q;
    return r.ok() ? r->items[0].AsInt() : -1;
  };
  XMarkCounts c = XMarkCounts::ForScaleFactor(0.002);
  EXPECT_EQ(count("/site/regions/*"), 6);  // six continents
  EXPECT_EQ(count("/site//item"), c.items);
  EXPECT_EQ(count("/site/people/person"), c.people);
  EXPECT_EQ(count("/site/open_auctions/open_auction"), c.open_auctions);
  EXPECT_EQ(count("/site/closed_auctions/closed_auction"),
            c.closed_auctions);
  EXPECT_EQ(count("/site/categories/category"), c.categories);
  // References resolve: every closed auction buyer is a person id.
  auto r = pf.Run(
      "every $b in /site/closed_auctions/closed_auction/buyer satisfies "
      "exists(/site/people/person[@id = $b/@person])",
      o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->items[0].AsBool());
}

TEST(XMarkGeneratorTest, RoundTripsThroughParser) {
  StringPool pool;
  auto doc = GenerateXMark(0.001, 3, &pool);
  ASSERT_TRUE(doc.ok());
  std::string serialized = xml::SerializeDocument(*doc, pool);
  StringPool pool2;
  auto reparsed = xml::ParseXml(serialized, &pool2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->num_nodes(), doc->num_nodes());
}

TEST(XMarkQueriesTest, TwentyQueriesWithTitles) {
  const auto& qs = XMarkQueries();
  ASSERT_EQ(qs.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(qs[static_cast<size_t>(i)].number, i + 1);
    EXPECT_NE(qs[static_cast<size_t>(i)].title, nullptr);
    EXPECT_EQ(&GetXMarkQuery(i + 1), &qs[static_cast<size_t>(i)]);
  }
}

/// XMark sf 0.003, seed 42, registered as "auction.xml": the document
/// the differential suites below run both engines over.
xml::Database* AuctionDb() {
  static xml::Database* db = [] {
    auto* d = new xml::Database();
    auto doc = GenerateXMark(0.003, 42, d->pool());
    EXPECT_TRUE(doc.ok());
    d->AddDocument("auction.xml", std::move(*doc));
    return d;
  }();
  return db;
}

/// Run `query` over AuctionDb() on the relational engine and on the
/// navigational baseline; the serialized results must be identical.
void ExpectEnginesAgree(const std::string& query) {
  Pathfinder pf(AuctionDb());
  QueryOptions po;
  po.context_doc = "auction.xml";
  auto pr = pf.Run(query, po);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  auto ps = pr->Serialize();
  ASSERT_TRUE(ps.ok());

  baseline::Baseline bl(AuctionDb());
  baseline::BaselineOptions bo;
  bo.context_doc = "auction.xml";
  auto br = bl.Run(query, bo);
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  auto bs = br->Serialize();
  ASSERT_TRUE(bs.ok());

  EXPECT_EQ(*ps, *bs);
  EXPECT_EQ(pr->items.size(), br->items.size());
}

/// Run `query` over AuctionDb() with the defaults, then once each with
/// join recognition, the optimizer and the staircase join switched
/// off; every run must serialize identically.
void ExpectAblationsAgree(const std::string& query) {
  Pathfinder pf(AuctionDb());
  QueryOptions base;
  base.context_doc = "auction.xml";
  auto reference = pf.Run(query, base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto ref_s = reference->Serialize();
  ASSERT_TRUE(ref_s.ok());

  for (int mask = 0; mask < 3; ++mask) {
    QueryOptions o = base;
    o.join_recognition = mask != 0;
    o.optimize = mask != 1;
    o.use_staircase = mask != 2;
    auto r = pf.Run(query, o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto s = r->Serialize();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, *ref_s) << "mask=" << mask;
  }
}

/// The headline correctness result: all 20 XMark queries produce
/// identical output on the relational engine and the navigational
/// baseline.
class XMarkDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(XMarkDifferentialTest, EnginesAgree) {
  const XMarkQuery& q = GetXMarkQuery(GetParam());
  SCOPED_TRACE("Q" + std::to_string(q.number) + ": " + q.title);
  ExpectEnginesAgree(q.text);
}

TEST_P(XMarkDifferentialTest, OptimizerAndAblationsPreserveResults) {
  const XMarkQuery& q = GetXMarkQuery(GetParam());
  SCOPED_TRACE("Q" + std::to_string(q.number) + ": " + q.title);
  ExpectAblationsAgree(q.text);
}

// Seed/scale robustness: a different document (seed 7, sf 0.001) must
// also be differential-clean on a representative query subset.
TEST(XMarkSecondSeedTest, EnginesAgree) {
  xml::Database db;
  auto doc = GenerateXMark(0.001, 7, db.pool());
  ASSERT_TRUE(doc.ok());
  db.AddDocument("auction.xml", std::move(*doc));
  Pathfinder pf(&db);
  baseline::Baseline bl(&db);
  QueryOptions po;
  po.context_doc = "auction.xml";
  baseline::BaselineOptions bo;
  bo.context_doc = "auction.xml";
  for (int qn : {1, 3, 6, 8, 11, 14, 19, 20}) {
    const XMarkQuery& q = GetXMarkQuery(qn);
    SCOPED_TRACE(q.number);
    auto pr = pf.Run(q.text, po);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();
    auto br = bl.Run(q.text, bo);
    ASSERT_TRUE(br.ok()) << br.status().ToString();
    EXPECT_EQ(*pr->Serialize(), *br->Serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(AllTwenty, XMarkDifferentialTest,
                         ::testing::Range(1, 21),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "Q" + std::to_string(i.param);
                         });

// Join shapes beyond Q1–Q20 (join_shapes.h), each against the
// baseline and under the ablation switches.
class JoinShapeTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinShapeTest, EnginesAgree) { ExpectEnginesAgree(GetParam().query); }

TEST_P(JoinShapeTest, OptimizerAndAblationsPreserveResults) {
  ExpectAblationsAgree(GetParam().query);
}

// The compiler's join recognition (paper Sec. 1) gives each `for`
// binding at most one value join: the first where-conjunct comparing
// an expression over the new variable alone with one over variables
// already bound, or with a literal. The other conjuncts stay selections.
TEST_P(JoinShapeTest, CompilerRecognizesJoins) {
  Pathfinder pf(AuctionDb());
  QueryOptions o;
  o.context_doc = "auction.xml";
  o.join_recognition = true;
  o.plan_cache = 0;  // compile_stats are only filled by a compilation
  auto r = pf.Run(GetParam().query, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->compile_stats.joins_recognized, GetParam().joins);
}

INSTANTIATE_TEST_SUITE_P(Shapes, JoinShapeTest,
                         ::testing::ValuesIn(kJoinCases),
                         [](const ::testing::TestParamInfo<JoinCase>& i) {
                           return std::string(i.param.name);
                         });

}  // namespace
}  // namespace pathfinder::xmark
