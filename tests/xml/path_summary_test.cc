#include "xml/path_summary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "xml/database.h"
#include "xml/parser.h"
#include "xml/tree_builder.h"

namespace pathfinder::xml {
namespace {

using StepAxis = PathSummary::StepAxis;
using StepTest = PathSummary::StepTest;

Document Parse(std::string_view text, StringPool* pool) {
  auto doc = ParseXml(text, pool);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

// Path id of the chain root/tag1/tag2/... (elements only), -1 if absent.
int32_t FindPath(const PathSummary& sum, const StringPool& pool,
                 const std::vector<std::string>& tags) {
  int32_t cur = 0;
  for (const std::string& tag : tags) {
    int32_t next = -1;
    for (int32_t c : sum.path(cur).children) {
      const PathNode& p = sum.path(c);
      if (!p.is_attr && pool.Get(p.tag) == tag) {
        next = c;
        break;
      }
    }
    if (next < 0) return -1;
    cur = next;
  }
  return cur;
}

// Every element/attribute pre of `doc` appears in exactly one partition
// slice, each slice is strictly ascending, levels/kinds agree with the
// owning path, and path counts sum to the partition store size.
void CheckPartitionInvariants(const Document& doc, const PathSummary& sum) {
  std::set<Pre> seen;
  uint64_t total = 0;
  for (int32_t id = 0; id < static_cast<int32_t>(sum.num_paths()); ++id) {
    const PathNode& p = sum.path(id);
    size_t len = 0;
    const Pre* part = sum.partition(id, &len);
    if (id == 0) {
      EXPECT_EQ(len, 0u);
      continue;
    }
    EXPECT_EQ(len, p.count);
    total += len;
    for (size_t i = 0; i < len; ++i) {
      Pre v = part[i];
      if (i > 0) {
        EXPECT_LT(part[i - 1], v) << "partition not sorted";
      }
      EXPECT_TRUE(seen.insert(v).second) << "pre " << v << " in two partitions";
      EXPECT_EQ(doc.level(v), p.level);
      EXPECT_EQ(doc.prop(v), p.tag);
      EXPECT_EQ(doc.IsAttr(v), p.is_attr);
    }
  }
  EXPECT_EQ(total, sum.partitions().size());
  // Exactly the element + attribute nodes are partitioned.
  for (Pre v = 0; v < doc.num_nodes(); ++v) {
    bool partitioned =
        doc.kind(v) == NodeKind::kElem || doc.kind(v) == NodeKind::kAttr;
    EXPECT_EQ(seen.count(v) > 0, partitioned) << "pre " << v;
  }
}

TEST(PathSummaryTest, MinimalDocument) {
  StringPool pool;
  Document doc = Parse("<a/>", &pool);
  PathSummary sum = BuildPathSummary(doc);
  ASSERT_EQ(sum.num_paths(), 2u);
  EXPECT_EQ(sum.num_element_paths(), 1u);
  EXPECT_EQ(sum.path(0).parent, -1);
  const PathNode& a = sum.path(1);
  EXPECT_EQ(pool.Get(a.tag), "a");
  EXPECT_EQ(a.parent, 0);
  EXPECT_EQ(a.level, 1);
  EXPECT_EQ(a.count, 1u);
  EXPECT_FALSE(a.is_attr);
  CheckPartitionInvariants(doc, sum);
}

TEST(PathSummaryTest, SameTagDifferentPathsStayDistinct) {
  StringPool pool;
  // /a/b occurs twice, /a/c/b once: same tag, two distinct paths.
  Document doc = Parse("<a><b/><b/><c><b/></c></a>", &pool);
  PathSummary sum = BuildPathSummary(doc);
  int32_t ab = FindPath(sum, pool, {"a", "b"});
  int32_t acb = FindPath(sum, pool, {"a", "c", "b"});
  ASSERT_GE(ab, 0);
  ASSERT_GE(acb, 0);
  EXPECT_NE(ab, acb);
  EXPECT_EQ(sum.path(ab).count, 2u);
  EXPECT_EQ(sum.path(acb).count, 1u);
  StrId b_tag = sum.path(ab).tag;
  const std::vector<int32_t>* by_tag = sum.ElementPathsByTag(b_tag);
  ASSERT_NE(by_tag, nullptr);
  EXPECT_EQ(*by_tag, (std::vector<int32_t>{ab, acb}));
  CheckPartitionInvariants(doc, sum);
}

TEST(PathSummaryTest, AttributePaths) {
  StringPool pool;
  Document doc = Parse("<a id=\"1\"><b id=\"2\" x=\"3\"/><b id=\"4\"/></a>",
                       &pool);
  PathSummary sum = BuildPathSummary(doc);
  int32_t a = FindPath(sum, pool, {"a"});
  int32_t b = FindPath(sum, pool, {"a", "b"});
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  int attr_paths = 0;
  int id_paths = 0;
  for (int32_t id = 0; id < static_cast<int32_t>(sum.num_paths()); ++id) {
    if (!sum.path(id).is_attr) continue;
    ++attr_paths;
    if (pool.Get(sum.path(id).tag) == "id") ++id_paths;
  }
  EXPECT_EQ(attr_paths, 3);  // /a/@id, /a/b/@id, /a/b/@x
  // @id occurs on two distinct paths.
  EXPECT_EQ(id_paths, 2);
  int32_t id_attr = -1;
  for (int32_t c : sum.path(b).children) {
    if (sum.path(c).is_attr && pool.Get(sum.path(c).tag) == "id") id_attr = c;
  }
  ASSERT_GE(id_attr, 0);
  EXPECT_EQ(sum.path(id_attr).count, 2u);
  // Attribute paths are not element paths.
  EXPECT_EQ(sum.num_element_paths(), sum.num_paths() - 1 - attr_paths);
  CheckPartitionInvariants(doc, sum);
}

TEST(PathSummaryTest, RecursiveNestingMakesOnePathPerDepth) {
  StringPool pool;
  // section nested inside section: recursion a per-tag statistic
  // cannot distinguish, but the summary keeps one path per depth.
  std::string text = "<doc>";
  constexpr int kDepth = 12;
  for (int i = 0; i < kDepth; ++i) text += "<section><title/>";
  for (int i = 0; i < kDepth; ++i) text += "</section>";
  text += "</doc>";
  Document doc = Parse(text, &pool);
  PathSummary sum = BuildPathSummary(doc);
  StrId sec = sum.path(FindPath(sum, pool, {"doc", "section"})).tag;
  const std::vector<int32_t>* secs = sum.ElementPathsByTag(sec);
  ASSERT_NE(secs, nullptr);
  EXPECT_EQ(secs->size(), static_cast<size_t>(kDepth));
  for (int32_t id : *secs) EXPECT_EQ(sum.path(id).count, 1u);
  // Levels 2, 3, ..., kDepth + 1.
  std::vector<int> levels;
  for (int32_t id : *secs) levels.push_back(sum.path(id).level);
  std::sort(levels.begin(), levels.end());
  for (int i = 0; i < kDepth; ++i) EXPECT_EQ(levels[i], i + 2);
  CheckPartitionInvariants(doc, sum);
}

TEST(PathSummaryTest, DeepNestingChain) {
  StringPool pool;
  constexpr int kDepth = 200;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += "<e" + std::to_string(i) + ">";
  for (int i = kDepth - 1; i >= 0; --i)
    text += "</e" + std::to_string(i) + ">";
  Document doc = Parse(text, &pool);
  PathSummary sum = BuildPathSummary(doc);
  EXPECT_EQ(sum.num_paths(), static_cast<size_t>(kDepth) + 1);
  EXPECT_EQ(sum.num_element_paths(), static_cast<size_t>(kDepth));
  CheckPartitionInvariants(doc, sum);
}

TEST(PathSummaryTest, MixedContentCountsTextChildren) {
  StringPool pool;
  Document doc = Parse(
      "<p>lead<b>bold</b>mid<i>ital</i>tail<b>more</b></p>", &pool);
  PathSummary sum = BuildPathSummary(doc);
  int32_t p = FindPath(sum, pool, {"p"});
  int32_t b = FindPath(sum, pool, {"p", "b"});
  int32_t i = FindPath(sum, pool, {"p", "i"});
  ASSERT_GE(p, 0);
  ASSERT_GE(b, 0);
  ASSERT_GE(i, 0);
  EXPECT_EQ(sum.path(b).count, 2u);
  CheckPartitionInvariants(doc, sum);
}

TEST(PathSummaryTest, CommentsAndPIsAreNotPartitioned) {
  StringPool pool;
  Document doc =
      Parse("<a><!--c--><b/><?pi data?><b>t</b></a>", &pool);
  PathSummary sum = BuildPathSummary(doc);
  int32_t b = FindPath(sum, pool, {"a", "b"});
  ASSERT_GE(b, 0);
  EXPECT_EQ(sum.path(b).count, 2u);
  CheckPartitionInvariants(doc, sum);
}

// --- ResolveStep -------------------------------------------------------

class ResolveStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = Parse(
        "<site><regions><africa><item id=\"1\"><name/></item>"
        "<item id=\"2\"><name/></item></africa>"
        "<asia><item id=\"3\"><name/></item></asia></regions>"
        "<people><person id=\"4\"><name/></person></people></site>",
        &pool_);
    sum_ = BuildPathSummary(doc_);
  }

  std::vector<int32_t> Resolve(StepAxis axis, StepTest test,
                               const std::string& name,
                               const std::vector<int32_t>& in) {
    std::vector<int32_t> out;
    sum_.ResolveStep(axis, test, name.empty() ? 0 : pool_.Intern(name), in,
                     &out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end());
    return out;
  }

  /// Nodes on a path set, as the partition consumers read them.
  size_t NodesOn(const std::vector<int32_t>& paths) const {
    std::vector<Pre> pres;
    return sum_.GatherPartitions(paths, 0, doc_.num_nodes(), &pres);
  }

  StringPool pool_;
  Document doc_;
  PathSummary sum_;
};

TEST_F(ResolveStepTest, ChildName) {
  auto site = Resolve(StepAxis::kChild, StepTest::kName, "site", {0});
  ASSERT_EQ(site.size(), 1u);
  auto regions = Resolve(StepAxis::kChild, StepTest::kName, "regions", site);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(NodesOn(regions), 1u);
  EXPECT_TRUE(
      Resolve(StepAxis::kChild, StepTest::kName, "nosuch", site).empty());
}

TEST_F(ResolveStepTest, ChildWildcardSelectsAllElementChildren) {
  auto site = Resolve(StepAxis::kChild, StepTest::kName, "site", {0});
  auto kids = Resolve(StepAxis::kChild, StepTest::kElement, "", site);
  EXPECT_EQ(kids.size(), 2u);  // regions, people
}

TEST_F(ResolveStepTest, DescendantName) {
  auto items = Resolve(StepAxis::kDescendant, StepTest::kName, "item", {0});
  EXPECT_EQ(items.size(), 2u);  // africa/item and asia/item paths
  EXPECT_EQ(NodesOn(items), 3u);
  auto names = Resolve(StepAxis::kDescendant, StepTest::kName, "name", {0});
  EXPECT_EQ(names.size(), 3u);  // under africa/item, asia/item, person
  EXPECT_EQ(NodesOn(names), 4u);
}

TEST_F(ResolveStepTest, DescendantOrSelfIncludesInput) {
  auto items = Resolve(StepAxis::kDescendant, StepTest::kName, "item", {0});
  auto orself =
      Resolve(StepAxis::kDescendantOrSelf, StepTest::kName, "item", items);
  EXPECT_EQ(orself, items);
  auto all = Resolve(StepAxis::kDescendantOrSelf, StepTest::kElement, "",
                     items);
  EXPECT_EQ(NodesOn(all), 3u + 3u);  // items plus their name children
}

TEST_F(ResolveStepTest, SelfFiltersByTest) {
  auto items = Resolve(StepAxis::kDescendant, StepTest::kName, "item", {0});
  EXPECT_EQ(Resolve(StepAxis::kSelf, StepTest::kName, "item", items), items);
  EXPECT_TRUE(
      Resolve(StepAxis::kSelf, StepTest::kName, "name", items).empty());
  EXPECT_EQ(Resolve(StepAxis::kSelf, StepTest::kAnyNode, "", items), items);
}

TEST_F(ResolveStepTest, AttributeAxis) {
  auto items = Resolve(StepAxis::kDescendant, StepTest::kName, "item", {0});
  auto ids = Resolve(StepAxis::kAttribute, StepTest::kName, "id", items);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(NodesOn(ids), 3u);
  for (int32_t id : ids) EXPECT_TRUE(sum_.path(id).is_attr);
  // * and node() on the attribute axis both select every attribute.
  EXPECT_EQ(Resolve(StepAxis::kAttribute, StepTest::kElement, "", items), ids);
  EXPECT_EQ(Resolve(StepAxis::kAttribute, StepTest::kAnyNode, "", items), ids);
}

TEST_F(ResolveStepTest, AttributesHaveNoChildren) {
  auto ids = Resolve(StepAxis::kDescendant, StepTest::kName, "item", {0});
  ids = Resolve(StepAxis::kAttribute, StepTest::kName, "id", ids);
  EXPECT_TRUE(Resolve(StepAxis::kChild, StepTest::kElement, "", ids).empty());
  EXPECT_TRUE(
      Resolve(StepAxis::kDescendant, StepTest::kElement, "", ids).empty());
}

TEST_F(ResolveStepTest, GatherPartitionsIsDocumentOrdered) {
  auto items = Resolve(StepAxis::kDescendant, StepTest::kName, "item", {0});
  std::vector<Pre> pres;
  size_t n = sum_.GatherPartitions(items, 0, doc_.num_nodes() - 1, &pres);
  EXPECT_EQ(n, 3u);
  ASSERT_EQ(pres.size(), 3u);
  EXPECT_TRUE(std::is_sorted(pres.begin(), pres.end()));
  for (Pre v : pres) {
    EXPECT_EQ(doc_.kind(v), NodeKind::kElem);
    EXPECT_EQ(pool_.Get(doc_.prop(v)), "item");
  }
  // Range restriction: clip to the second item onwards.
  std::vector<Pre> tail;
  sum_.GatherPartitions(items, pres[1], doc_.num_nodes() - 1, &tail);
  EXPECT_EQ(tail, (std::vector<Pre>{pres[1], pres[2]}));
  std::vector<Pre> none;
  EXPECT_EQ(sum_.GatherPartitions(items, pres[2] + 1, pres[2], &none), 0u);
}

// --- Randomized invariants --------------------------------------------

void BuildRandomTree(Rng* rng, TreeBuilder* b, int depth) {
  int kids = static_cast<int>(rng->Range(0, depth > 4 ? 1 : 4));
  for (int i = 0; i < kids; ++i) {
    switch (rng->Below(5)) {
      case 0:
        b->Text("t" + std::to_string(rng->Below(50)));
        break;
      case 1:
        b->Comment("c");
        break;
      default: {
        b->StartElem("e" + std::to_string(rng->Below(4)));
        if (rng->Chance(0.4)) {
          b->Attr("k" + std::to_string(rng->Below(3)), "v");
        }
        BuildRandomTree(rng, b, depth + 1);
        b->EndElem();
        break;
      }
    }
  }
}

class RandomSummaryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSummaryTest, PartitionInvariantsHold) {
  StringPool pool;
  Rng rng(GetParam());
  TreeBuilder b(&pool);
  b.StartElem("root");
  BuildRandomTree(&rng, &b, 0);
  b.EndElem();
  auto doc = std::move(b).Finish().value();
  PathSummary sum = BuildPathSummary(doc);
  CheckPartitionInvariants(doc, sum);
  EXPECT_GT(sum.MemoryBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSummaryTest,
                         ::testing::Range<uint64_t>(1, 17));

TEST(PathSummaryTest, DatabasePublishesSummary) {
  Database db;
  Document doc = Parse("<a><b/></a>", db.pool());
  FragId id = db.AddDocument("d.xml", std::move(doc));
  const Document& stored = db.doc(id);
  ASSERT_NE(stored.summary(), nullptr);
  EXPECT_EQ(stored.summary()->num_element_paths(), 2u);
  EXPECT_NE(stored.shared_summary(), nullptr);
}

}  // namespace
}  // namespace pathfinder::xml
