// Ablation E6 (paper Sec. 2 "XPath axes" / [7]): staircase join vs
// tree-unaware per-context region selection vs pointer-DOM navigation,
// for axis steps over growing context sequences on an XMark instance.
//
// Expected shape: for the recursive axes the staircase join's pruning +
// single-scan evaluation keeps the cost near O(doc), while the naive
// strategy rescans overlapping regions per context node and the DOM
// walks pointers; the gap widens with the context count.

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
      // Deterministic spread of element contexts over the document.
      std::vector<Pre> contexts;
      Pre step = std::max<Pre>(1, doc.num_nodes() /
                                      static_cast<Pre>(num_ctx));
      for (Pre v = 1; v < doc.num_nodes() && contexts.size() < num_ctx;
           v += step) {
        Pre u = v;
        while (u < doc.num_nodes() && doc.IsAttr(u)) ++u;
        if (u < doc.num_nodes() &&
            (contexts.empty() || contexts.back() < u)) {
          contexts.push_back(u);
        }
      }

      std::vector<Pre> out;
      accel::StaircaseStats stats;
      double scj_ms = BestOfMs(3, [&] {
        out.clear();
        stats.Reset();
        accel::StaircaseJoin(doc, 0, contexts, c.axis, c.test, &out, &stats);
      });
      size_t scj_results = out.size();

      double naive_ms = BestOfMs(3, [&] {
        out.clear();
        for (Pre v : contexts) {
          accel::NaiveStep(doc, 0, v, c.axis, c.test, &out);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
      });
      if (out.size() != scj_results) {
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
  return 0;
}

}  // namespace
}  // namespace pathfinder::bench

int main() { return pathfinder::bench::Main(); }
