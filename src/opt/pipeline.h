#ifndef PATHFINDER_OPT_PIPELINE_H_
#define PATHFINDER_OPT_PIPELINE_H_

#include "algebra/op.h"
#include "base/status.h"

namespace pathfinder::opt {

/// Counters describing one plan's pipeline annotation (copied into
/// QueryResult for tests and EXPLAIN output).
struct PipelineStats {
  int fragments = 0;      ///< fused fragments annotated
  int fused_ops = 0;      ///< operators inside those fragments
  int longest_chain = 0;  ///< member count of the longest fragment
};

/// Identify maximal fusable operator chains in the plan DAG and record
/// them on Op::pipe_frag / Op::pipe_tail (any prior annotation is
/// discarded).
///
/// A fragment grows upward from a head — an equi/theta join (probe →
/// gather) or any row-local map operator (σ/π/attach/~) — through
/// row-local map operators, as long as each extension consumes its
/// child's output exclusively (a shared subplan must be materialized
/// for its other consumers, so it ends the chain). kStep, kRowNum,
/// kAggr, kDistinct and every other operator kind always break
/// pipelines. Singleton fragments survive only for σ and joins, whose
/// op-at-a-time kernels (FilterGather, pairs + GatherPairs) are fused
/// already; a lone π/attach/~ runs the per-operator path.
///
/// The executor evaluates each fragment tail as one morsel-driven pass,
/// materializing only the tail's output BAT.
Status AnnotatePipelines(const algebra::OpPtr& root,
                         PipelineStats* stats = nullptr);

}  // namespace pathfinder::opt

#endif  // PATHFINDER_OPT_PIPELINE_H_
