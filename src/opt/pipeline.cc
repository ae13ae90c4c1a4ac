#include "opt/pipeline.h"

#include <algorithm>
#include <vector>

namespace pathfinder::opt {

namespace alg = pathfinder::algebra;
using alg::Op;
using alg::OpKind;

Status AnnotatePipelines(const algebra::OpPtr& root, PipelineStats* stats) {
  const alg::PlanNumbering plan = alg::NumberPlan(root);
  const std::vector<Op*>& order = plan.nodes;

  // Consumer edge counts, by node number. An op consumed by more than
  // one parent (or twice by the same parent) must materialize: its
  // other consumers read the BAT.
  std::vector<int> consumers(order.size(), 0);
  for (Op* op : order) {
    op->pipe_frag = -1;
    op->pipe_tail = false;
    for (const auto& c : op->children) consumers[plan.IndexOf(c.get())]++;
  }

  // Bottom-up (TopoOrder is children-before-parents): each fusable op
  // either extends its child's open chain or starts a new one. The
  // current chain end is always the op marked pipe_tail.
  int next_id = 0;
  for (Op* op : order) {
    if (alg::IsPipelineJoinOp(op->kind)) {
      // Joins head a fragment: probe emits (l,r) row pairs that flow
      // into any fused parents; both inputs stay materialized.
      op->pipe_frag = next_id++;
      op->pipe_tail = true;
      continue;
    }
    if (!alg::IsPipelineMapOp(op->kind)) continue;
    Op* child = op->children[0].get();
    if (child->pipe_frag >= 0 && child->pipe_tail &&
        consumers[plan.IndexOf(child)] == 1) {
      // Extend: the child's intermediate result is never materialized.
      op->pipe_frag = child->pipe_frag;
      child->pipe_tail = false;
    } else {
      op->pipe_frag = next_id++;
    }
    op->pipe_tail = true;
  }

  // Fragment sizes, by fragment id.
  std::vector<int> frag_len(static_cast<size_t>(next_id), 0);
  for (Op* op : order) {
    if (op->pipe_frag >= 0) frag_len[op->pipe_frag]++;
  }

  // Demote singleton map fragments without a fused kernel: a lone
  // π/attach/~ gains nothing over the per-operator path. Lone σ and
  // joins stay fragments (their kernels are the op-at-a-time ones).
  for (Op* op : order) {
    if (op->pipe_frag < 0 || frag_len[op->pipe_frag] != 1) continue;
    if (op->kind == OpKind::kSelect || alg::IsPipelineJoinOp(op->kind)) {
      continue;
    }
    frag_len[op->pipe_frag] = 0;
    op->pipe_frag = -1;
    op->pipe_tail = false;
  }

  if (stats != nullptr) {
    *stats = PipelineStats{};
    for (int len : frag_len) {
      if (len == 0) continue;
      stats->fragments++;
      stats->fused_ops += len;
      stats->longest_chain = std::max(stats->longest_chain, len);
    }
  }
  return Status::OK();
}

}  // namespace pathfinder::opt
