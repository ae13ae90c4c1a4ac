#include "opt/path_rewrite.h"

#include <vector>

namespace pathfinder::opt {

namespace {

namespace alg = pathfinder::algebra;
using alg::Op;
using alg::OpKind;
using alg::OpPtr;
using alg::PathStep;
using accel::Axis;
using accel::NodeTest;

bool StructuralAxis(Axis a) {
  return a == Axis::kChild || a == Axis::kDescendant ||
         a == Axis::kDescendantOrSelf || a == Axis::kSelf ||
         a == Axis::kAttribute;
}

/// May this step appear *inside* a collapsed chain? Any-kind tests are
/// allowed here: the summary resolves them to element paths only, and
/// text/comment/PI nodes matched by the real step contribute nothing
/// to a subsequent structural step (they have no element children and
/// no attributes), so dropping them is invisible downstream.
bool EligibleIntermediate(const Op& op) {
  if (!StructuralAxis(op.axis)) return false;
  switch (op.test.kind) {
    case NodeTest::Kind::kName:
    case NodeTest::Kind::kElement:
    case NodeTest::Kind::kAnyKind:
      return true;
    default:
      return false;
  }
}

/// May this step *end* a collapsed chain? The chain's result is read
/// from the summary's element/attribute partitions, so the final step
/// must produce only elements or only attributes — an any-kind test on
/// a non-attribute axis would also have to return text/comment/PI
/// nodes, which the summary does not store.
bool EligibleFinal(const Op& op) {
  if (!StructuralAxis(op.axis)) return false;
  if (op.axis == Axis::kAttribute) {
    // attribute::* / attribute::node() select all attributes.
    return op.test.kind == NodeTest::Kind::kName ||
           op.test.kind == NodeTest::Kind::kElement ||
           op.test.kind == NodeTest::Kind::kAnyKind;
  }
  return op.test.kind == NodeTest::Kind::kName ||
         op.test.kind == NodeTest::Kind::kElement;
}

/// Is `op` transparent plumbing between two chain links — i.e. does it
/// preserve the (iter, item) pairs of its input (as a multiset; steps
/// re-sort their context anyway)? Projections qualify only when they
/// map iter and item identically (a rename would change what the step
/// reads); rownum/attach add columns the step ignores.
bool TransparentLayer(const Op& op) {
  switch (op.kind) {
    case OpKind::kProject: {
      bool iter_ok = false, item_ok = false;
      for (const auto& [nw, old] : op.proj) {
        if (nw == bat::kIter) {
          if (old != bat::kIter) return false;
          iter_ok = true;
        } else if (nw == bat::kItem) {
          if (old != bat::kItem) return false;
          item_ok = true;
        }
      }
      return iter_ok && item_ok;
    }
    case OpKind::kRowNum:
    case OpKind::kAttach:
      return true;
    default:
      return false;
  }
}

class Rewriter {
 public:
  explicit Rewriter(PathRewriteStats* stats) : stats_(stats) {}

  /// Rewrite every chain reachable from `root` without passing through
  /// a collapsed chain's interior (whose nodes the result drops).
  OpPtr Run(const OpPtr& root) {
    const alg::PlanNumbering plan = alg::NumberPlan(root);
    const size_t n = plan.nodes.size();
    // Top-down (parents before children): which nodes does the result
    // reach, and which of them head a collapsible chain (ending at the
    // kDocRoot numbered doc[i])?
    constexpr uint32_t kNone = UINT32_MAX;
    std::vector<uint8_t> reached(n, 0);
    std::vector<uint32_t> doc(n, kNone);
    std::vector<PathStep> steps;
    reached.back() = 1;
    for (size_t i = n; i-- > 0;) {
      if (!reached[i]) continue;
      const Op* op = plan.nodes[i];
      const Op* d = nullptr;
      if (op->kind == OpKind::kStep && MatchChain(*op, &steps, &d)) {
        doc[i] = static_cast<uint32_t>(plan.IndexOf(d));
        reached[doc[i]] = 1;
      } else {
        for (const auto& c : op->children) reached[plan.IndexOf(c.get())] = 1;
      }
    }
    // Bottom-up: rebuild the reached nodes.
    const std::vector<const OpPtr*> owner = alg::NodeOwners(plan, root);
    std::vector<OpPtr> result(n);
    for (size_t i = 0; i < n; ++i) {
      if (!reached[i]) continue;
      if (doc[i] != kNone) {
        const Op* d = nullptr;
        MatchChain(*plan.nodes[i], &steps, &d);
        result[i] = alg::PathScan(result[doc[i]], steps);
        if (stats_) stats_->chains_collapsed++;
        continue;
      }
      result[i] = alg::WithRebuiltChildren(plan, *owner[i], result);
    }
    return result.back();
  }

 private:
  /// Match the maximal structural chain whose outermost step is `top`.
  /// On success fills `steps` innermost-first-reversed (i.e. in
  /// evaluation order) and points `doc` at the kDocRoot terminating
  /// the chain.
  bool MatchChain(const Op& top, std::vector<PathStep>* steps,
                  const Op** doc) {
    if (!EligibleFinal(top)) return false;
    std::vector<PathStep> rev;  // outermost first
    rev.push_back({top.axis, top.test});
    const Op* cur = top.children[0].get();
    while (true) {
      if (TransparentLayer(*cur)) {
        cur = cur->children[0].get();
        continue;
      }
      if (cur->kind == OpKind::kStep && EligibleIntermediate(*cur)) {
        rev.push_back({cur->axis, cur->test});
        cur = cur->children[0].get();
        continue;
      }
      break;
    }
    // Chains of one step are not worth an operator: the staircase
    // join's partition pruning already answers them from the summary.
    if (cur->kind != OpKind::kDocRoot || rev.size() < 2) return false;
    steps->assign(rev.rbegin(), rev.rend());
    *doc = cur;
    return true;
  }

  PathRewriteStats* stats_;
};

}  // namespace

Result<algebra::OpPtr> RewritePathChains(const algebra::OpPtr& root,
                                         PathRewriteStats* stats) {
  Rewriter rw(stats);
  return rw.Run(root);
}

}  // namespace pathfinder::opt
