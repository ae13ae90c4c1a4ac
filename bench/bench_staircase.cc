// Ablation E6 (paper Sec. 2 "XPath axes" / [7]): staircase join vs
// tree-unaware per-context region selection vs pointer-DOM navigation,
// for axis steps over growing context sequences on an XMark instance.
//
// Expected shape: for the recursive axes the staircase join's pruning +
// single-scan evaluation keeps the cost near O(doc), while the naive
// strategy rescans overlapping regions per context node and the DOM
// walks pointers; the gap widens with the context count.
//
// A second table times the loop-lifted shape of a compiled Step: 4,096
// iterations of one context each, as one kernel call over the whole
// (iter, node) relation against one single-iteration call per context.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "accel/step.h"
#include "baseline/dom.h"
#include "bench/bench_util.h"

namespace pathfinder::bench {
namespace {

using accel::Axis;
using accel::NodeTest;
using xml::Pre;

// Deterministic spread of up to `n` non-attribute contexts over the
// document, in document order.
std::vector<Pre> SpreadContexts(const xml::Document& doc, size_t n) {
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

// One Step over `contexts`, iteration k holding context k alone: one
// loop-lifted kernel call against one call per iteration. Returns
// false when the two disagree.
bool LoopLiftedRow(const xml::Document& doc, const std::vector<Pre>& contexts,
                   Axis axis, const NodeTest& test) {
  accel::IterNodes in;
  for (size_t k = 0; k < contexts.size(); ++k) {
    in.Add(static_cast<int64_t>(k), accel::MakeRef(0, contexts[k]));
  }
  const accel::FragmentFn frags = [&](uint32_t) {
    return accel::Fragment{&doc, nullptr};
  };
  accel::IterNodes lifted;
  accel::StaircaseStats lifted_st;
  double lifted_ms = BestOfMs(3, [&] {
    lifted = accel::IterNodes{};
    lifted_st.Reset();
    accel::StaircaseJoin(in, frags, axis, test, &lifted, &lifted_st);
  });
  std::vector<Pre> out;
  accel::IterNodes per_iter;
  accel::StaircaseStats per_iter_st;
  double per_iter_ms = BestOfMs(3, [&] {
    per_iter = accel::IterNodes{};
    per_iter_st.Reset();
    for (size_t k = 0; k < contexts.size(); ++k) {
      out.clear();
      accel::StaircaseJoin(doc, {contexts[k]}, axis, test, &out,
                           &per_iter_st);
      for (Pre r : out) {
        per_iter.Add(static_cast<int64_t>(k), accel::MakeRef(0, r));
      }
    }
  });
  if (lifted.iter != per_iter.iter || lifted.node != per_iter.node ||
      lifted_st.nodes_scanned != per_iter_st.nodes_scanned) {
    std::fprintf(stderr, "MISMATCH (loop-lifted) on %s\n",
                 accel::AxisName(axis));
    return false;
  }
  std::printf("%-18s %9zu %12s %12s %10zu %10zu\n", accel::AxisName(axis),
              contexts.size(), FmtMs(lifted_ms).c_str(),
              FmtMs(per_iter_ms).c_str(), lifted.size(),
              lifted_st.nodes_scanned);
  std::fflush(stdout);
  return true;
}

int Main() {
  double sf = ScaleFactors().back();
  xml::Database* db = XMarkDb(sf);
  const xml::Document& doc = db->doc(0);
  baseline::Dom dom(doc);

  std::printf("Staircase join ablation on XMark sf=%g (%u nodes)\n\n", sf,
              doc.num_nodes());
  std::printf("%-18s %9s %12s %12s %12s %10s %10s\n", "axis", "contexts",
              "staircase", "naive", "dom", "pruned", "scanned");

  struct Case {
    Axis axis;
    NodeTest test;
  };
  std::vector<Case> cases = {
      {Axis::kDescendant, NodeTest::Element()},
      {Axis::kDescendantOrSelf, NodeTest::AnyKind()},
      {Axis::kAncestor, NodeTest::Element()},
      {Axis::kChild, NodeTest::Element()},
      {Axis::kFollowing, NodeTest::Element()},
      {Axis::kPreceding, NodeTest::Element()},
  };

  for (const Case& c : cases) {
    for (size_t num_ctx : {16u, 256u, 4096u}) {
      std::vector<Pre> contexts = SpreadContexts(doc, num_ctx);

      std::vector<Pre> scj_out;
      accel::StaircaseStats stats;
      double scj_ms = BestOfMs(3, [&] {
        scj_out.clear();
        stats.Reset();
        accel::StaircaseJoin(doc, contexts, c.axis, c.test, &scj_out,
                             &stats);
      });

      std::vector<Pre> out;
      double naive_ms = BestOfMs(3, [&] {
        out.clear();
        for (Pre v : contexts) {
          accel::NaiveStep(doc, 0, v, c.axis, c.test, &out);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
      });
      if (out != scj_out) {
        std::fprintf(stderr, "MISMATCH on %s\n", accel::AxisName(c.axis));
        return 1;
      }

      double dom_ms = BestOfMs(3, [&] {
        std::vector<baseline::DomNode*> nodes;
        for (Pre v : contexts) {
          baseline::DomStep(dom.node(v), c.axis, c.test, &nodes);
        }
        std::sort(nodes.begin(), nodes.end(),
                  [](auto* a, auto* b) { return a->pre < b->pre; });
        nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      });

      std::printf("%-18s %9zu %12s %12s %12s %10zu %10zu\n",
                  accel::AxisName(c.axis), contexts.size(),
                  FmtMs(scj_ms).c_str(), FmtMs(naive_ms).c_str(),
                  FmtMs(dom_ms).c_str(), stats.contexts_pruned,
                  stats.nodes_scanned);
      std::fflush(stdout);
    }
  }
  std::printf(
      "\n'pruned' = context nodes removed by the staircase pruning "
      "phase; 'scanned' = encoding rows touched. For the recursive axes "
      "the scanned count stays bounded by the document size regardless "
      "of the context count — the paper's tree-awareness claim.\n");

  std::printf("\nLoop-lifted Step: one context per iteration\n\n");
  std::printf("%-18s %9s %12s %12s %10s %10s\n", "axis", "iters",
              "one call", "per iter", "results", "scanned");
  const std::vector<Pre> spread = SpreadContexts(doc, 4096);
  std::vector<Pre> owners;  // elements carrying attributes
  for (Pre v = 1; v + 1 < doc.num_nodes() && owners.size() < 4096; ++v) {
    if (doc.IsAttr(v + 1) && !doc.IsAttr(v)) owners.push_back(v);
  }
  if (!LoopLiftedRow(doc, spread, Axis::kChild, NodeTest::Element()) ||
      !LoopLiftedRow(doc, owners, Axis::kAttribute, NodeTest::AnyKind()) ||
      !LoopLiftedRow(doc, spread, Axis::kDescendant, NodeTest::Element())) {
    return 1;
  }
  std::printf(
      "\n'one call' = one loop-lifted kernel call over all iterations; "
      "'per iter' = one single-iteration call per context. Both return "
      "the same rows and scan the same encoding rows.\n");
  return 0;
}

}  // namespace
}  // namespace pathfinder::bench

int main() { return pathfinder::bench::Main(); }
