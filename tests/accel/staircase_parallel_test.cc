// Parallel staircase join must be indistinguishable from the serial
// evaluation: identical result sequences AND identical statistics, for
// every axis, at several pool sizes. Runs on a generated XMark instance
// large enough that the morsel-parallel scan paths actually engage
// (the grain thresholds are a few thousand rows/contexts).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/step.h"
#include "algebra/op.h"
#include "base/rng.h"
#include "engine/executor.h"
#include "xmark/generator.h"

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

class StaircaseParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pool_ = new StringPool;
    auto d = xmark::GenerateXMark(0.02, 42, pool_);
    ASSERT_TRUE(d.ok());
    doc_ = new Document(std::move(*d));
    ASSERT_GT(doc_->num_nodes(), 50000u);
  }

  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
    delete pool_;
    pool_ = nullptr;
  }

  // Deterministic spread of `n` non-attribute contexts across the
  // document (same idiom as bench_staircase).
  static std::vector<Pre> SpreadContexts(size_t n) {
    std::vector<Pre> contexts;
    Pre step = std::max<Pre>(1, doc_->num_nodes() / static_cast<Pre>(n));
    for (Pre v = 1; v < doc_->num_nodes() && contexts.size() < n;
         v += step) {
      Pre u = v;
      while (u < doc_->num_nodes() && doc_->IsAttr(u)) ++u;
      if (u < doc_->num_nodes() &&
          (contexts.empty() || contexts.back() < u)) {
        contexts.push_back(u);
      }
    }
    return contexts;
  }

  static void ExpectIdentical(const std::vector<Pre>& contexts, Axis axis,
                              const NodeTest& test) {
    std::vector<Pre> serial_out;
    StaircaseStats serial_st;
    StaircaseJoin(*doc_, 0, contexts, axis, test, &serial_out, &serial_st,
                  nullptr);
    ThreadPool pool2(2), pool7(7);
    for (ThreadPool* tp : {&pool2, &pool7}) {
      std::vector<Pre> out;
      StaircaseStats st;
      StaircaseJoin(*doc_, 0, contexts, axis, test, &out, &st, tp);
      EXPECT_EQ(out, serial_out) << AxisName(axis);
      EXPECT_EQ(st.contexts_in, serial_st.contexts_in) << AxisName(axis);
      EXPECT_EQ(st.contexts_pruned, serial_st.contexts_pruned)
          << AxisName(axis);
      EXPECT_EQ(st.nodes_scanned, serial_st.nodes_scanned)
          << AxisName(axis);
      EXPECT_EQ(st.results, serial_st.results) << AxisName(axis);
    }
  }

  static StringPool* pool_;
  static Document* doc_;
};

StringPool* StaircaseParallelTest::pool_ = nullptr;
Document* StaircaseParallelTest::doc_ = nullptr;

TEST_F(StaircaseParallelTest, AllAxesManyContexts) {
  std::vector<Pre> contexts = SpreadContexts(5000);
  ASSERT_GT(contexts.size(), 3000u);
  for (Axis axis : kAllAxes) {
    ExpectIdentical(contexts, axis, NodeTest::Element());
    ExpectIdentical(contexts, axis, NodeTest::AnyKind());
  }
}

TEST_F(StaircaseParallelTest, SingleRootContextSplitsTheScan) {
  // One context covering the whole document: the flat segment
  // decomposition must still split the scan into morsels (this is the
  // //x case that dominates real query plans).
  std::vector<Pre> contexts = {1};
  ExpectIdentical(contexts, Axis::kDescendant, NodeTest::Element());
  ExpectIdentical(contexts, Axis::kDescendantOrSelf, NodeTest::AnyKind());
  ExpectIdentical(contexts, Axis::kFollowing, NodeTest::Element());
}

TEST_F(StaircaseParallelTest, RightmostContextPreceding) {
  std::vector<Pre> contexts = {doc_->num_nodes() - 1};
  ExpectIdentical(contexts, Axis::kPreceding, NodeTest::Element());
}

TEST_F(StaircaseParallelTest, NestedContextsPruneBeforeParallelScan) {
  // Mix covering and covered contexts: pruning (serial) must produce
  // the same survivor set the parallel scan then decomposes.
  std::vector<Pre> contexts = SpreadContexts(2000);
  std::vector<Pre> nested;
  for (Pre v : contexts) {
    nested.push_back(v);
    // Also add v's first child when it has one (a covered context).
    Pre end = v + doc_->size(v);
    for (Pre w = v + 1; w <= end && nested.size() < 4000; ++w) {
      if (!doc_->IsAttr(w)) {
        nested.push_back(w);
        break;
      }
    }
  }
  std::sort(nested.begin(), nested.end());
  nested.erase(std::unique(nested.begin(), nested.end()), nested.end());
  for (Axis axis : {Axis::kDescendant, Axis::kDescendantOrSelf,
                    Axis::kAncestor, Axis::kChild}) {
    ExpectIdentical(nested, axis, NodeTest::Element());
  }
}

// The executor's Step over a shuffled (iter, item) table spanning two
// documents and many iters: at least two sort runs, so the context
// grouping sorts through the parallel merge at every level. The
// result must equal one serial staircase join per (iter, document).
TEST(StepExecutorTest, ShuffledTwoDocumentInputMatchesPerGroupJoins) {
  xml::Database db;
  std::vector<xml::FragId> frags;
  for (uint64_t seed : {7, 8}) {
    auto d = xmark::GenerateXMark(0.002, seed, db.pool());
    ASSERT_TRUE(d.ok());
    frags.push_back(
        db.AddDocument("d" + std::to_string(seed) + ".xml", std::move(*d)));
  }
  // Rows: iters 1..80, each with contexts drawn from both documents,
  // duplicates included; then shuffled.
  Rng rng(17);
  std::vector<std::vector<Item>> rows;
  for (int64_t iter = 1; iter <= 80; ++iter) {
    for (int k = 0; k < 16; ++k) {
      xml::FragId f = frags[rng.Below(frags.size())];
      const Document& doc = db.doc(f);
      Pre v = static_cast<Pre>(rng.Below(doc.num_nodes()));
      while (doc.IsAttr(v)) --v;
      rows.push_back({Item::Int(iter), Item::Node(f, v)});
    }
  }
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.Below(i + 1)]);
  }
  const size_t kRun = 256;
  ASSERT_GE(rows.size(), 2 * kRun);

  const std::pair<Axis, NodeTest> steps[] = {
      {Axis::kChild, NodeTest::AnyKind()},
      {Axis::kDescendant, NodeTest::Element()},
      {Axis::kAncestor, NodeTest::Element()},
      {Axis::kFollowingSibling, NodeTest::AnyKind()},
      {Axis::kAttribute, NodeTest::AnyKind()},
  };
  for (const auto& [axis, test] : steps) {
    // Reference: group by (iter, document) in (iter, item) order, one
    // serial staircase join per group over its sorted unique contexts.
    std::vector<int64_t> want_iter;
    std::vector<Item> want_item;
    std::vector<std::vector<Item>> sorted = rows;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a[0].AsInt() != b[0].AsInt() ? a[0].AsInt() < b[0].AsInt()
                                          : a[1].raw < b[1].raw;
    });
    for (size_t i = 0; i < sorted.size();) {
      const int64_t iter = sorted[i][0].AsInt();
      const xml::FragId f = sorted[i][1].NodeFrag();
      std::vector<Pre> contexts;
      for (; i < sorted.size() && sorted[i][0].AsInt() == iter &&
             sorted[i][1].NodeFrag() == f;
           ++i) {
        Pre p = sorted[i][1].NodePre();
        if (contexts.empty() || contexts.back() != p) contexts.push_back(p);
      }
      const Document& doc = db.doc(f);
      std::vector<Pre> out;
      StaircaseJoin(doc, 0, contexts, axis, test, &out, nullptr, nullptr);
      for (Pre r : out) {
        want_iter.push_back(iter);
        want_item.push_back(doc.IsAttr(r) ? Item::Attr(f, r)
                                          : Item::Node(f, r));
      }
    }
    ASSERT_FALSE(want_iter.empty()) << AxisName(axis);

    auto plan = algebra::Step(
        algebra::LitTable({bat::kIter, bat::kItem},
                          {bat::ColType::kInt, bat::ColType::kItem}, rows),
        axis, test);
    for (int threads : {1, 2, 7}) {
      engine::QueryContext ctx(&db);
      ctx.SetNumThreads(threads);
      ctx.tuning.sort_chunk_rows = kRun;
      auto t = engine::Execute(plan, &ctx);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_EQ(t->GetCol(bat::kIter).value()->ints(), want_iter)
          << AxisName(axis) << " threads=" << threads;
      EXPECT_EQ(t->GetCol(bat::kItem).value()->items(), want_item)
          << AxisName(axis) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace pathfinder::accel
