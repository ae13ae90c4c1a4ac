// Parallel staircase join must be indistinguishable from the serial
// evaluation: identical result sequences AND identical statistics, for
// every axis, at several pool sizes. Runs on a generated XMark instance
// large enough that the chunked paths actually engage: the join cuts
// its work into chunks of 1,024 contexts (local axes) or 8,192 encoding
// rows (region axes), so every loop-lifted shape below spans at least
// three chunks, with a boundary inside one iteration's run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "accel/step.h"
#include "algebra/op.h"
#include "base/rng.h"
#include "engine/executor.h"
#include "xmark/generator.h"
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
    delete small_;
    small_ = nullptr;
    delete doc_;
    doc_ = nullptr;
    delete pool_;
    pool_ = nullptr;
  }

  // A smaller instance for the loop-lifted shapes, whose oracle climbs
  // every context's ancestors with the O(distance) Document::Parent.
  static const Document& Small() {
    if (small_ == nullptr) {
      auto d = xmark::GenerateXMark(0.005, 43, pool_);
      EXPECT_TRUE(d.ok());
      small_ = new Document(std::move(*d));
    }
    return *small_;
  }

  // Deterministic spread of `n` non-attribute contexts across the
  // document (same idiom as bench_staircase).
  static std::vector<Pre> SpreadContexts(size_t n) {
    return SpreadContexts(*doc_, n);
  }
  static std::vector<Pre> SpreadContexts(const Document& doc, size_t n) {
    std::vector<Pre> contexts;
    Pre step = std::max<Pre>(1, doc.num_nodes() / static_cast<Pre>(n));
    for (Pre v = 1; v < doc.num_nodes() && contexts.size() < n; v += step) {
      Pre u = v;
      while (u < doc.num_nodes() && doc.IsAttr(u)) ++u;
      if (u < doc.num_nodes() && (contexts.empty() || contexts.back() < u)) {
        contexts.push_back(u);
      }
    }
    return contexts;
  }

  static void ExpectIdentical(const std::vector<Pre>& contexts, Axis axis,
                              const NodeTest& test) {
    std::vector<Pre> serial_out;
    StaircaseStats serial_st;
    StaircaseJoin(*doc_, contexts, axis, test, &serial_out, &serial_st,
                  nullptr);
    ThreadPool pool2(2), pool7(7);
    for (ThreadPool* tp : {&pool2, &pool7}) {
      std::vector<Pre> out;
      StaircaseStats st;
      StaircaseJoin(*doc_, contexts, axis, test, &out, &st, tp);
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
  static Document* small_;
};

StringPool* StaircaseParallelTest::pool_ = nullptr;
Document* StaircaseParallelTest::doc_ = nullptr;
Document* StaircaseParallelTest::small_ = nullptr;

// Chunk sizes of the join (accel/step.cc).
constexpr size_t kCtxGrain = 1024;
constexpr size_t kScanGrain = 8192;

bool IsRegionAxis(Axis a) {
  return a == Axis::kDescendant || a == Axis::kDescendantOrSelf ||
         a == Axis::kFollowing || a == Axis::kPreceding;
}

// The oracle: NaiveStep per (iter, context) in the context's own tree,
// then each iteration's results sorted and deduplicated.
IterNodes NaiveOracle(const IterNodes& in, const FragmentFn& frags,
                      Axis axis, const NodeTest& test) {
  IterNodes out;
  for (size_t b = 0; b < in.size();) {
    std::vector<NodeRef> refs;
    size_t e = b;
    for (; e < in.size() && in.iter[e] == in.iter[b]; ++e) {
      const Document& doc = *frags(RefFrag(in.node[e])).doc;
      const Pre v = RefPre(in.node[e]);
      std::vector<Pre> res;
      NaiveStep(doc, doc.TreeRoot(v), v, axis, test, &res);
      for (Pre r : res) refs.push_back(MakeRef(RefFrag(in.node[e]), r));
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    for (NodeRef r : refs) out.Add(in.iter[b], r);
    b = e;
  }
  return out;
}

// The counters the chunk boundaries could disturb, by their per-run
// definition (no summary): pruned contexts and scanned rows of the
// ancestor and region axes. A run is one iter's contexts; following and
// preceding split it at tree boundaries.
StaircaseStats CountersByDefinition(const IterNodes& in, const Document& doc,
                                    Axis axis) {
  StaircaseStats st;
  const bool one_tree = axis == Axis::kFollowing || axis == Axis::kPreceding;
  for (size_t b = 0; b < in.size();) {
    const Pre root = doc.TreeRoot(RefPre(in.node[b]));
    size_t e = b + 1;
    while (e < in.size() && in.iter[e] == in.iter[b] &&
           (!one_tree || doc.TreeRoot(RefPre(in.node[e])) == root)) {
      ++e;
    }
    std::vector<Pre> run;
    for (size_t k = b; k < e; ++k) run.push_back(RefPre(in.node[k]));
    const Pre tree_end = root + doc.size(root);
    switch (axis) {
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        bool have_prev = false;
        Pre prev = 0;
        for (size_t i = 0; i < run.size(); ++i) {
          const Pre v = run[i];
          if (axis == Axis::kAncestor && i + 1 < run.size() &&
              run[i + 1] <= v + doc.size(v)) {
            ++st.contexts_pruned;
            continue;
          }
          std::vector<Pre> anc;
          NaiveStep(doc, root, v, Axis::kAncestor, NodeTest::AnyKind(), &anc);
          size_t above = 0;
          for (Pre a : anc) above += !have_prev || a > prev;
          st.nodes_scanned +=
              have_prev ? std::min(anc.size(), above + 1) : anc.size();
          have_prev = true;
          prev = v;
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        bool have_last = false;
        Pre last_end = 0;
        for (Pre v : run) {
          if (have_last && v <= last_end) {
            ++st.contexts_pruned;
            continue;
          }
          have_last = true;
          last_end = v + doc.size(v);
          st.nodes_scanned += doc.size(v);
        }
        break;
      }
      case Axis::kFollowing: {
        Pre min_end = tree_end;
        for (Pre v : run) min_end = std::min(min_end, v + doc.size(v));
        st.contexts_pruned += run.size() - 1;
        st.nodes_scanned += tree_end - min_end;
        break;
      }
      case Axis::kPreceding:
        st.contexts_pruned += run.size() - 1;
        st.nodes_scanned += run.back() > root + 1 ? run.back() - root - 1 : 0;
        break;
      default:
        break;
    }
    b = e;
  }
  return st;
}

void ExpectSameStats(const StaircaseStats& a, const StaircaseStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.contexts_in, b.contexts_in) << what;
  EXPECT_EQ(a.contexts_pruned, b.contexts_pruned) << what;
  EXPECT_EQ(a.nodes_scanned, b.nodes_scanned) << what;
  EXPECT_EQ(a.results, b.results) << what;
  EXPECT_EQ(a.path_partitions_pruned, b.path_partitions_pruned) << what;
  EXPECT_EQ(a.structural_answers, b.structural_answers) << what;
}

// Builds a relation from (iter, pre) pairs of fragment 0: sorted by
// (iter, pre), repeated pairs dropped, as the executor hands it over.
IterNodes Relation(std::vector<std::pair<int64_t, Pre>> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  IterNodes in;
  for (const auto& [iter, pre] : rows) in.Add(iter, MakeRef(0, pre));
  return in;
}

// Following and preceding cost the oracle a scan of the tree per
// context, and so do the ancestor axes (each Document::Parent call
// scans back to the parent), so those axes may take `n` rows evenly
// spread over the relation (still sorted per iteration).
IterNodes Sample(const IterNodes& in, size_t n) {
  IterNodes out;
  const size_t stride = std::max<size_t>(1, in.size() / n);
  for (size_t k = 0; k < in.size(); k += stride) {
    out.Add(in.iter[k], in.node[k]);
  }
  return out;
}

// Every axis under AnyKind, Element, Text and two name tests ("name"
// for elements, "id" for attributes): the join equals the oracle, and
// no pool, a 2-thread and a 7-thread pool give identical rows and
// stats. With `summary`, the region axes' name tests also run on the
// path-partition gather. Following and preceding take a 48-row sample
// of the relation; with `chunked` every other axis runs on all of it
// and must span at least three chunks, else the ancestor axes are
// sampled too.
void ExpectLoopLiftedMatchesOracle(const IterNodes& relation,
                                   const Document& doc,
                                   const StringPool& pool,
                                   const xml::PathSummary* summary,
                                   bool chunked) {
  ThreadPool pool2(2), pool7(7);
  StrId name = 0, id = 0;
  ASSERT_TRUE(pool.Find("name", &name));
  ASSERT_TRUE(pool.Find("id", &id));
  const NodeTest tests[] = {NodeTest::AnyKind(), NodeTest::Element(),
                            NodeTest::Text(), NodeTest::Name(name),
                            NodeTest::Name(id)};
  for (Axis axis : kAllAxes) {
    const bool narrow =
        axis == Axis::kFollowing || axis == Axis::kPreceding ||
        (!chunked &&
         (axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf));
    const IterNodes in = narrow ? Sample(relation, 48) : relation;
    for (const NodeTest& test : tests) {
      const bool gather = summary != nullptr && IsRegionAxis(axis) &&
                          test.kind == NodeTest::Kind::kName;
      for (const xml::PathSummary* sum :
           {static_cast<const xml::PathSummary*>(nullptr),
            gather ? summary : nullptr}) {
        if (sum == nullptr && gather) continue;
        const FragmentFn frags = [&](uint32_t) { return Fragment{&doc, sum}; };
        const std::string what = std::string(AxisName(axis)) + " " +
                                 test.ToString(pool) +
                                 (sum != nullptr ? " (summary)" : "");
        const IterNodes want = NaiveOracle(in, frags, axis, test);
        IterNodes serial;
        StaircaseStats serial_st;
        StaircaseJoin(in, frags, axis, test, &serial, &serial_st, nullptr);
        EXPECT_EQ(serial.iter, want.iter) << what;
        EXPECT_EQ(serial.node, want.node) << what;
        EXPECT_EQ(serial_st.contexts_in, in.size()) << what;
        EXPECT_EQ(serial_st.results, want.size()) << what;
        if (sum == nullptr && test.kind == NodeTest::Kind::kAnyKind &&
            (IsRegionAxis(axis) || axis == Axis::kAncestor ||
             axis == Axis::kAncestorOrSelf)) {
          const StaircaseStats def = CountersByDefinition(in, doc, axis);
          EXPECT_EQ(serial_st.contexts_pruned, def.contexts_pruned) << what;
          EXPECT_EQ(serial_st.nodes_scanned, def.nodes_scanned) << what;
        }
        if (chunked && test.kind == NodeTest::Kind::kAnyKind) {
          EXPECT_GT(IsRegionAxis(axis) ? serial_st.nodes_scanned : in.size(),
                    2 * (IsRegionAxis(axis) ? kScanGrain : kCtxGrain))
              << what << ": fewer than three chunks";
        }
        for (ThreadPool* tp : {&pool2, &pool7}) {
          IterNodes out;
          StaircaseStats st;
          StaircaseJoin(in, frags, axis, test, &out, &st, tp);
          const std::string at =
              what + " threads=" + std::to_string(tp->num_threads());
          EXPECT_EQ(out.iter, serial.iter) << at;
          EXPECT_EQ(out.node, serial.node) << at;
          ExpectSameStats(st, serial_st, at);
        }
      }
    }
  }
}

// Q20's shape: one context per iteration, attributes among them.
TEST_F(StaircaseParallelTest, LoopLiftedOneContextPerIteration) {
  const Document& doc = Small();
  std::vector<std::pair<int64_t, Pre>> rows;
  int64_t iter = 0;
  for (Pre v : SpreadContexts(doc, 2600)) {
    rows.push_back({++iter, v});
    if (v + 1 < doc.num_nodes() && doc.IsAttr(v + 1)) {
      rows.push_back({++iter, v + 1});
    }
  }
  IterNodes in = Relation(rows);
  ASSERT_GT(in.size(), 2 * kCtxGrain);
  auto summary = xml::BuildPathSummary(doc);
  ExpectLoopLiftedMatchesOracle(in, doc, *pool_, &summary,
                                /*chunked=*/false);
}

// Many iterations over one shared context: every iteration repeats the
// same rows, which the per-iteration dedup must keep apart.
TEST_F(StaircaseParallelTest, LoopLiftedIterationsShareOneContext) {
  const Document& doc = Small();
  StrId person = 0;
  ASSERT_TRUE(pool_->Find("person", &person));
  Pre shared = 0;
  for (Pre v = 0; v < doc.num_nodes() && shared == 0; ++v) {
    if (doc.kind(v) == xml::NodeKind::kElem && doc.prop(v) == person) {
      shared = v;
    }
  }
  ASSERT_NE(shared, 0u);
  std::vector<std::pair<int64_t, Pre>> rows;
  for (int64_t iter = 1; iter <= 2600; ++iter) rows.push_back({iter, shared});
  IterNodes in = Relation(rows);
  ASSERT_GT(in.size(), 2 * kCtxGrain);
  ExpectLoopLiftedMatchesOracle(in, doc, *pool_, nullptr,
                                /*chunked=*/false);
}

// Nested contexts, attribute contexts and duplicate results in one
// iteration whose run spans several chunks, then two smaller
// iterations: one over attributes and their owners, one over a sparse
// spread.
TEST_F(StaircaseParallelTest, LoopLiftedNestedContextsSpanChunks) {
  const Document& doc = Small();
  std::vector<std::pair<int64_t, Pre>> rows;
  for (Pre v : SpreadContexts(doc, 1600)) {
    rows.push_back({1, v});
    // v's attributes and first child (a covered context).
    const Pre end = v + doc.size(v);
    for (Pre w = v + 1; w <= end; ++w) {
      rows.push_back({1, w});
      if (!doc.IsAttr(w)) break;
    }
  }
  const size_t first_run = rows.size();
  for (Pre v = 1; v + 1 < doc.num_nodes(); v += 37) {
    if (!doc.IsAttr(v) && doc.IsAttr(v + 1)) {
      rows.push_back({2, v});
      rows.push_back({2, v + 1});
    }
  }
  for (Pre v : SpreadContexts(doc, 300)) rows.push_back({3, v});
  IterNodes in = Relation(rows);
  ASSERT_GT(first_run, 2 * kCtxGrain);
  auto summary = xml::BuildPathSummary(doc);
  ExpectLoopLiftedMatchesOracle(in, doc, *pool_, &summary,
                                /*chunked=*/true);
}

// Following and preceding with contexts in two trees of a forest in
// one iteration: each run stays in its own tree.
TEST(LoopLiftedForestTest, RunsEndAtTreeBoundaries) {
  StringPool pool;
  xml::TreeBuilder b(&pool);
  constexpr int kTrees = 3;
  for (int t = 0; t < kTrees; ++t) {
    if (t > 0) b.NextTree();
    b.StartElem("root");
    for (int i = 0; i < 700; ++i) {
      b.StartElem("item");
      b.Attr("id", std::to_string(i));
      for (int j = 0; j < 3; ++j) {
        b.StartElem("name");
        b.Text("x");
        b.EndElem();
      }
      b.EndElem();
    }
    b.EndElem();
  }
  Document forest = std::move(b).Finish().value();
  ASSERT_EQ(forest.tree_roots().size(), static_cast<size_t>(kTrees));
  std::vector<std::pair<int64_t, Pre>> rows;
  Rng rng(5);
  const auto& roots = forest.tree_roots();
  for (int64_t iter = 1; iter <= 3; ++iter) {
    // Iterations 1 and 2 hold contexts in two adjacent trees; 3 in all.
    for (size_t t = 0; t < roots.size(); ++t) {
      if ((iter == 1 && t == 2) || (iter == 2 && t == 0)) continue;
      const Pre root = roots[t];
      for (int k = 0; k < 8; ++k) {
        Pre v = root + 1 + static_cast<Pre>(rng.Below(forest.size(root)));
        rows.push_back({iter, v});
      }
    }
  }
  IterNodes in = Relation(rows);
  const FragmentFn frags = [&](uint32_t) { return Fragment{&forest, nullptr}; };
  ThreadPool pool2(2), pool7(7);
  for (Axis axis : kAllAxes) {
    for (const NodeTest& test :
         {NodeTest::AnyKind(), NodeTest::Element(),
          NodeTest::Name(pool.Intern("name"))}) {
      const std::string what = AxisName(axis);
      const IterNodes want = NaiveOracle(in, frags, axis, test);
      IterNodes serial;
      StaircaseStats serial_st;
      StaircaseJoin(in, frags, axis, test, &serial, &serial_st, nullptr);
      EXPECT_EQ(serial.iter, want.iter) << what;
      EXPECT_EQ(serial.node, want.node) << what;
      if (test.kind == NodeTest::Kind::kAnyKind &&
          (IsRegionAxis(axis) || axis == Axis::kAncestor ||
           axis == Axis::kAncestorOrSelf)) {
        const StaircaseStats def = CountersByDefinition(in, forest, axis);
        EXPECT_EQ(serial_st.contexts_pruned, def.contexts_pruned) << what;
        EXPECT_EQ(serial_st.nodes_scanned, def.nodes_scanned) << what;
        if (axis == Axis::kFollowing) {
          EXPECT_GT(serial_st.nodes_scanned, 2 * kScanGrain);
        }
      }
      for (ThreadPool* tp : {&pool2, &pool7}) {
        IterNodes out;
        StaircaseStats st;
        StaircaseJoin(in, frags, axis, test, &out, &st, tp);
        EXPECT_EQ(out.iter, serial.iter) << what;
        EXPECT_EQ(out.node, serial.node) << what;
        ExpectSameStats(st, serial_st, what);
      }
    }
  }
}

// A stop that trips after the first poll: one chunk runs, the others
// are skipped with their rows and counters, at every pool size.
TEST_F(StaircaseParallelTest, StopSkipsTheRemainingChunks) {
  std::vector<std::pair<int64_t, Pre>> rows;
  int64_t iter = 0;
  for (Pre v : SpreadContexts(4000)) rows.push_back({++iter, v});
  IterNodes in = Relation(rows);
  ASSERT_GT(in.size(), 3 * kCtxGrain);
  const FragmentFn frags = [&](uint32_t) { return Fragment{doc_, nullptr}; };
  ThreadPool pool2(2), pool7(7);
  for (ThreadPool* tp : {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
    std::atomic<int> polls{0};
    const StopFn stop = [&] { return polls.fetch_add(1) > 0; };
    IterNodes out;
    StaircaseStats st;
    StaircaseJoin(in, frags, Axis::kChild, NodeTest::AnyKind(), &out, &st,
                  tp, stop);
    EXPECT_GT(st.contexts_in, 0u);
    EXPECT_LE(st.contexts_in, kCtxGrain);
    EXPECT_GE(polls.load(), 4);
  }
}

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
// sort goes through the parallel merge at every level, and more than
// three context chunks. The result must equal one serial staircase
// join per (iter, document), and its counters their sum.
TEST(StepExecutorTest, ShuffledTwoDocumentInputMatchesPerGroupJoins) {
  xml::Database db;
  std::vector<xml::FragId> frags;
  for (uint64_t seed : {7, 8}) {
    auto d = xmark::GenerateXMark(0.002, seed, db.pool());
    ASSERT_TRUE(d.ok());
    frags.push_back(
        db.AddDocument("d" + std::to_string(seed) + ".xml", std::move(*d)));
  }
  // Rows: iters 1..240, each with contexts drawn from both documents,
  // duplicates included; then shuffled.
  Rng rng(17);
  std::vector<std::vector<Item>> rows;
  for (int64_t iter = 1; iter <= 240; ++iter) {
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
  ASSERT_GT(rows.size(), 3 * kCtxGrain + 100);  // duplicates drop out

  for (Axis axis : kAllAxes) {
    const NodeTest test = axis == Axis::kAttribute || axis == Axis::kChild ||
                                  axis == Axis::kFollowingSibling
                              ? NodeTest::AnyKind()
                              : NodeTest::Element();
    // Reference: group by (iter, document) in (iter, item) order, one
    // serial staircase join per group over its sorted unique contexts.
    std::vector<int64_t> want_iter;
    std::vector<Item> want_item;
    StaircaseStats want_st;
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
      StaircaseJoin(doc, contexts, axis, test, &out, &want_st, nullptr);
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
      ExpectSameStats(ctx.scj_stats, want_st,
                      std::string(AxisName(axis)) +
                          " threads=" + std::to_string(threads));
    }
  }
}

// A token fired at the Step's operator checkpoint cancels the query
// before the Step's chunks run: kCancelled, and the staircase join
// counts fewer contexts than the Step's input holds.
TEST(StepExecutorTest, TokenFiredOnAChunkedStepCancels) {
  xml::Database db;
  auto d = xmark::GenerateXMark(0.002, 7, db.pool());
  ASSERT_TRUE(d.ok());
  const xml::FragId f = db.AddDocument("d.xml", std::move(*d));
  const Document& doc = db.doc(f);
  std::vector<std::vector<Item>> rows;
  for (Pre v = 1; v < doc.num_nodes(); ++v) {
    if (!doc.IsAttr(v)) {
      rows.push_back({Item::Int(static_cast<int64_t>(v)), Item::Node(f, v)});
    }
  }
  ASSERT_GT(rows.size(), 3 * kCtxGrain);
  auto plan = algebra::Step(
      algebra::LitTable({bat::kIter, bat::kItem},
                        {bat::ColType::kInt, bat::ColType::kItem}, rows),
      Axis::kChild, NodeTest::AnyKind());
  for (int threads : {1, 2, 7}) {
    engine::CancelToken token;
    engine::QueryContext ctx(&db);
    ctx.SetNumThreads(threads);
    ctx.cancel_token = &token;
    ctx.op_probe = [](const algebra::Op& op, engine::CancelToken* t) {
      if (op.kind == algebra::OpKind::kStep) t->Cancel();
    };
    auto t = engine::Execute(plan, &ctx);
    ASSERT_FALSE(t.ok()) << "threads=" << threads;
    EXPECT_EQ(t.status().code(), StatusCode::kCancelled);
    EXPECT_LT(ctx.scj_stats.contexts_in, rows.size());
  }
}

}  // namespace
}  // namespace pathfinder::accel
