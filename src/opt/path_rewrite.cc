#include "opt/path_rewrite.h"

#include <unordered_map>
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
        if (nw == "iter") {
          if (old != "iter") return false;
          iter_ok = true;
        } else if (nw == "item") {
          if (old != "item") return false;
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

  OpPtr Rec(const OpPtr& op) {
    auto it = memo_.find(op.get());
    if (it != memo_.end()) return it->second;
    OpPtr result;
    const Op* doc = nullptr;
    std::vector<PathStep> steps;
    if (op->kind == OpKind::kStep && MatchChain(*op, &steps, &doc)) {
      // Find the shared_ptr of the matched doc node by walking down
      // again (MatchChain only identified it).
      OpPtr doc_ptr = FindNode(op, doc);
      result = alg::PathScan(Rec(doc_ptr), std::move(steps));
      if (stats_) stats_->chains_collapsed++;
    } else {
      std::vector<OpPtr> kids;
      bool changed = false;
      for (const auto& c : op->children) {
        OpPtr nc = Rec(c);
        changed |= nc.get() != c.get();
        kids.push_back(std::move(nc));
      }
      if (changed) {
        result = std::make_shared<Op>(*op);
        result->children = std::move(kids);
      } else {
        result = op;
      }
    }
    memo_[op.get()] = result;
    return result;
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

  /// Re-walk the chain from `top` to recover the shared_ptr of the
  /// node MatchChain identified (children are stored as OpPtr, but the
  /// matcher walked raw pointers).
  OpPtr FindNode(const OpPtr& top, const Op* target) {
    OpPtr cur = top;
    while (cur.get() != target) cur = cur->children[0];
    return cur;
  }

  std::unordered_map<const Op*, OpPtr> memo_;
  PathRewriteStats* stats_;
};

}  // namespace

Result<algebra::OpPtr> RewritePathChains(const algebra::OpPtr& root,
                                         PathRewriteStats* stats) {
  Rewriter rw(stats);
  return rw.Rec(root);
}

}  // namespace pathfinder::opt
