#include <gtest/gtest.h>

#include <algorithm>

#include "accel/step.h"
#include "base/rng.h"
#include "baseline/dom.h"
#include "xml/parser.h"
#include "xml/tree_builder.h"

namespace pathfinder::accel {
namespace {

using xml::Document;
using xml::Pre;

constexpr Axis kAllAxes[] = {
    Axis::kChild,          Axis::kDescendant,
    Axis::kDescendantOrSelf, Axis::kSelf,
    Axis::kParent,         Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowing,
    Axis::kPreceding,      Axis::kFollowingSibling,
    Axis::kPrecedingSibling, Axis::kAttribute,
};

class FixtureDoc : public ::testing::Test {
 protected:
  void SetUp() override {
    // <a><b id="1"><c/><d>t</d></b><b id="2"><c/></b><e/></a>
    auto d = xml::ParseXml(
        R"(<a><b id="1"><c/><d>t</d></b><b id="2"><c/></b><e/></a>)",
        &pool_);
    ASSERT_TRUE(d.ok());
    doc_ = std::make_unique<Document>(std::move(*d));
    // pres: 0 doc, 1 a, 2 b, 3 @id, 4 c, 5 d, 6 t, 7 b, 8 @id, 9 c, 10 e
  }

  std::vector<Pre> Step(Pre v, Axis axis, const NodeTest& test) {
    std::vector<Pre> out;
    NaiveStep(*doc_, 0, v, axis, test, &out);
    return out;
  }

  StringPool pool_;
  std::unique_ptr<Document> doc_;
};

TEST_F(FixtureDoc, ChildAxis) {
  EXPECT_EQ(Step(1, Axis::kChild, NodeTest::AnyKind()),
            (std::vector<Pre>{2, 7, 10}));
  EXPECT_EQ(Step(1, Axis::kChild, NodeTest::Name(pool_.Intern("b"))),
            (std::vector<Pre>{2, 7}));
  EXPECT_EQ(Step(2, Axis::kChild, NodeTest::AnyKind()),
            (std::vector<Pre>{4, 5}));  // attribute excluded
}

TEST_F(FixtureDoc, DescendantAxis) {
  EXPECT_EQ(Step(1, Axis::kDescendant, NodeTest::Name(pool_.Intern("c"))),
            (std::vector<Pre>{4, 9}));
  EXPECT_EQ(Step(2, Axis::kDescendant, NodeTest::Text()),
            (std::vector<Pre>{6}));
}

TEST_F(FixtureDoc, AttributeAxis) {
  EXPECT_EQ(Step(2, Axis::kAttribute, NodeTest::AnyKind()),
            (std::vector<Pre>{3}));
  EXPECT_EQ(Step(2, Axis::kAttribute, NodeTest::Name(pool_.Intern("id"))),
            (std::vector<Pre>{3}));
  EXPECT_EQ(Step(2, Axis::kAttribute, NodeTest::Name(pool_.Intern("no"))),
            (std::vector<Pre>{}));
  EXPECT_EQ(Step(1, Axis::kAttribute, NodeTest::AnyKind()),
            (std::vector<Pre>{}));
}

TEST_F(FixtureDoc, ParentAncestor) {
  EXPECT_EQ(Step(4, Axis::kParent, NodeTest::AnyKind()),
            (std::vector<Pre>{2}));
  EXPECT_EQ(Step(6, Axis::kAncestor, NodeTest::Element()),
            (std::vector<Pre>{1, 2, 5}));
  EXPECT_EQ(Step(6, Axis::kAncestorOrSelf, NodeTest::AnyKind()),
            (std::vector<Pre>{0, 1, 2, 5, 6}));
}

TEST_F(FixtureDoc, FollowingPreceding) {
  // following(c at 4): d, t, b, @? (attrs excluded), c, e
  EXPECT_EQ(Step(4, Axis::kFollowing, NodeTest::Element()),
            (std::vector<Pre>{5, 7, 9, 10}));
  // preceding(e at 10): everything before, minus ancestors, no attrs.
  EXPECT_EQ(Step(10, Axis::kPreceding, NodeTest::Element()),
            (std::vector<Pre>{2, 4, 5, 7, 9}));
}

TEST_F(FixtureDoc, Siblings) {
  EXPECT_EQ(Step(7, Axis::kFollowingSibling, NodeTest::AnyKind()),
            (std::vector<Pre>{10}));
  EXPECT_EQ(Step(7, Axis::kPrecedingSibling, NodeTest::AnyKind()),
            (std::vector<Pre>{2}));
  EXPECT_EQ(Step(4, Axis::kFollowingSibling, NodeTest::AnyKind()),
            (std::vector<Pre>{5}));
}

TEST_F(FixtureDoc, SelfAxis) {
  EXPECT_EQ(Step(2, Axis::kSelf, NodeTest::Name(pool_.Intern("b"))),
            (std::vector<Pre>{2}));
  EXPECT_EQ(Step(2, Axis::kSelf, NodeTest::Name(pool_.Intern("c"))),
            (std::vector<Pre>{}));
  EXPECT_EQ(Step(6, Axis::kSelf, NodeTest::Text()),
            (std::vector<Pre>{6}));
}

TEST_F(FixtureDoc, StaircasePruningCountsDescendant) {
  // Contexts {b(2), c(4)}: c is inside b's subtree and must be pruned.
  StaircaseStats stats;
  std::vector<Pre> out;
  StaircaseJoin(*doc_, {2, 4}, Axis::kDescendant, NodeTest::AnyKind(),
                &out, &stats);
  EXPECT_EQ(stats.contexts_pruned, 1u);
  // Attributes are not on the descendant axis.
  EXPECT_EQ(out, (std::vector<Pre>{4, 5, 6}));
}

TEST_F(FixtureDoc, StaircaseFollowingSingleScan) {
  StaircaseStats stats;
  std::vector<Pre> out;
  StaircaseJoin(*doc_, {2, 7}, Axis::kFollowing, NodeTest::Element(),
                &out, &stats);
  // union of following sets == following of the earliest-ending context
  EXPECT_EQ(out, (std::vector<Pre>{7, 9, 10}));
  EXPECT_EQ(stats.contexts_pruned, 1u);
}

// ---------------------------------------------------------------------
// Property: StaircaseJoin == per-context NaiveStep + sort/unique
//           == pointer-DOM navigation, on random trees, for all axes
//           and random context sets.

struct PropertyCase {
  uint64_t seed;
  Axis axis;
};

class StepEquivalenceTest
    : public ::testing::TestWithParam<PropertyCase> {};

void BuildRandom(Rng* rng, xml::TreeBuilder* b, int depth) {
  int kids = static_cast<int>(rng->Range(0, depth > 4 ? 1 : 4));
  for (int i = 0; i < kids; ++i) {
    switch (rng->Below(5)) {
      case 0:
        b->Text("x");
        break;
      case 1:
        b->Comment("c");
        break;
      default: {
        b->StartElem("e" + std::to_string(rng->Below(4)));
        int attrs = static_cast<int>(rng->Range(0, 2));
        for (int a = 0; a < attrs; ++a) {
          b->Attr("k" + std::to_string(a), "v");
        }
        BuildRandom(rng, b, depth + 1);
        b->EndElem();
        break;
      }
    }
  }
}

TEST_P(StepEquivalenceTest, ThreeWayAgreement) {
  const auto& param = GetParam();
  StringPool pool;
  Rng rng(param.seed);
  xml::TreeBuilder builder(&pool);
  builder.StartElem("root");
  BuildRandom(&rng, &builder, 0);
  builder.EndElem();
  Document doc = std::move(builder).Finish().value();
  std::string err;
  ASSERT_TRUE(doc.Validate(&err)) << err;

  baseline::Dom dom(doc);

  // Random node tests to sweep.
  std::vector<NodeTest> tests = {
      NodeTest::AnyKind(), NodeTest::Element(), NodeTest::Text(),
      NodeTest::Name(pool.Intern("e1")),
      NodeTest::Name(pool.Intern("k0")),
  };

  for (const NodeTest& test : tests) {
    // Random sorted duplicate-free context set (non-attr nodes; steps
    // from attributes are exercised separately).
    std::vector<Pre> contexts;
    for (Pre v = 0; v < doc.num_nodes(); ++v) {
      if (doc.IsAttr(v)) continue;
      if (rng.Chance(0.3)) contexts.push_back(v);
    }
    if (contexts.empty()) contexts.push_back(0);

    std::vector<Pre> staircase;
    StaircaseJoin(doc, contexts, param.axis, test, &staircase);

    std::vector<Pre> naive;
    for (Pre c : contexts) NaiveStep(doc, 0, c, param.axis, test, &naive);
    std::sort(naive.begin(), naive.end());
    naive.erase(std::unique(naive.begin(), naive.end()), naive.end());

    std::vector<Pre> via_dom;
    {
      std::vector<baseline::DomNode*> nodes;
      for (Pre c : contexts) {
        baseline::DomStep(dom.node(c), param.axis, test, &nodes);
      }
      for (auto* n : nodes) via_dom.push_back(n->pre);
      std::sort(via_dom.begin(), via_dom.end());
      via_dom.erase(std::unique(via_dom.begin(), via_dom.end()),
                    via_dom.end());
    }

    EXPECT_EQ(staircase, naive)
        << "axis=" << AxisName(param.axis) << " test "
        << test.ToString(pool) << " seed=" << param.seed;
    EXPECT_EQ(staircase, via_dom)
        << "axis=" << AxisName(param.axis) << " (DOM) seed=" << param.seed;

    // Staircase output must be sorted and duplicate-free.
    EXPECT_TRUE(std::is_sorted(staircase.begin(), staircase.end()));
    EXPECT_TRUE(std::adjacent_find(staircase.begin(), staircase.end()) ==
                staircase.end());
  }
}

std::vector<PropertyCase> AllCases() {
  std::vector<PropertyCase> cases;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (Axis axis : kAllAxes) {
      cases.push_back({seed, axis});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, StepEquivalenceTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      std::string name = std::string(AxisName(info.param.axis)) + "_s" +
                         std::to_string(info.param.seed);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------
// Forests: a fragment of several trees, each under its own level-0
// document node (how constructor results are stored). Every axis from
// contexts in one tree stays inside that tree, and equals the same step
// on the tree built as a document of its own, shifted by the tree's root.

TEST(ForestStepTest, StaircaseEqualsPerTreeNaiveStep) {
  constexpr int kTrees = 3;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    StringPool pool;
    xml::TreeBuilder forest_b(&pool);
    std::vector<Document> alone;
    for (int t = 0; t < kTrees; ++t) {
      if (t > 0) forest_b.NextTree();
      xml::TreeBuilder alone_b(&pool);
      for (xml::TreeBuilder* b : {&forest_b, &alone_b}) {
        Rng rng(seed * 10 + static_cast<uint64_t>(t));
        b->StartElem("root");
        BuildRandom(&rng, b, 0);
        b->EndElem();
      }
      alone.push_back(std::move(alone_b).Finish().value());
    }
    Document forest = std::move(forest_b).Finish().value();
    std::string err;
    ASSERT_TRUE(forest.Validate(&err)) << err;
    ASSERT_EQ(forest.tree_roots().size(), static_cast<size_t>(kTrees));

    std::vector<NodeTest> tests = {NodeTest::AnyKind(), NodeTest::Element(),
                                   NodeTest::Name(pool.Intern("e1"))};
    Rng pick(seed);
    for (int t = 0; t < kTrees; ++t) {
      const Pre root = forest.tree_roots()[static_cast<size_t>(t)];
      const Pre last = root + forest.size(root);
      ASSERT_EQ(forest.TreeRoot(last), root);
      const Document& single = alone[static_cast<size_t>(t)];
      ASSERT_EQ(single.num_nodes(), last - root + 1);
      for (Axis axis : kAllAxes) {
        for (const NodeTest& test : tests) {
          std::vector<Pre> contexts;
          for (Pre v = root; v <= last; ++v) {
            if (!forest.IsAttr(v) && pick.Chance(0.4)) contexts.push_back(v);
          }
          if (contexts.empty()) contexts.push_back(root + 1);

          std::vector<Pre> staircase;
          StaircaseJoin(forest, contexts, axis, test, &staircase);

          std::vector<Pre> naive;
          for (Pre c : contexts) NaiveStep(forest, root, c, axis, test, &naive);
          std::sort(naive.begin(), naive.end());
          naive.erase(std::unique(naive.begin(), naive.end()), naive.end());

          std::vector<Pre> shifted;
          std::vector<Pre> single_ctx;
          for (Pre c : contexts) single_ctx.push_back(c - root);
          StaircaseJoin(single, single_ctx, axis, test, &shifted);
          for (Pre& r : shifted) r += root;

          EXPECT_EQ(staircase, naive)
              << AxisName(axis) << " tree " << t << " seed " << seed;
          EXPECT_EQ(staircase, shifted)
              << AxisName(axis) << " tree " << t << " seed " << seed;
          for (Pre r : staircase) {
            EXPECT_TRUE(r >= root && r <= last)
                << AxisName(axis) << " left tree " << t << ": " << r;
          }
        }
      }
    }
  }
}

// Steps from attribute contexts (parent/ancestor/self).
TEST(AttributeContextTest, ParentOfAttribute) {
  StringPool pool;
  auto doc = xml::ParseXml(R"(<a><b id="7"/></a>)", &pool).value();
  std::vector<Pre> out;
  NaiveStep(doc, 0, 3, Axis::kParent, NodeTest::AnyKind(), &out);
  EXPECT_EQ(out, (std::vector<Pre>{2}));
  out.clear();
  NaiveStep(doc, 0, 3, Axis::kSelf, NodeTest::AnyKind(), &out);
  EXPECT_EQ(out, (std::vector<Pre>{3}));
  out.clear();
  NaiveStep(doc, 0, 3, Axis::kFollowingSibling, NodeTest::AnyKind(), &out);
  EXPECT_TRUE(out.empty());  // attributes have no siblings
}

TEST(AxisMetaTest, NamesAndDirections) {
  EXPECT_STREQ(AxisName(Axis::kDescendant), "descendant");
  EXPECT_TRUE(AxisIsForward(Axis::kChild));
  EXPECT_FALSE(AxisIsForward(Axis::kAncestor));
  EXPECT_FALSE(AxisIsForward(Axis::kPreceding));
  EXPECT_TRUE(AxisIsForward(Axis::kAttribute));
}

}  // namespace
}  // namespace pathfinder::accel
