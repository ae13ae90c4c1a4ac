#ifndef PATHFINDER_OPT_OPTIMIZE_H_
#define PATHFINDER_OPT_OPTIMIZE_H_

#include "algebra/op.h"
#include "base/result.h"

namespace pathfinder::xml {
class Database;
}

namespace pathfinder::opt {

/// Counters of one Optimize invocation. Reset at entry, so a reused
/// struct never carries counts over from a previous plan.
struct OptimizeStats {
  size_t ops_before = 0;
  size_t ops_after = 0;
  int projections_fused = 0;
  int dead_columns_pruned = 0;
  int distincts_removed = 0;
  int unions_simplified = 0;
  /// Structurally identical subtrees merged into shared nodes by the
  /// CSE (hash-consing) pass.
  int cse_merges = 0;
  int rounds = 0;
  /// Always 0: join order is the compiler's. Kept only for readers that
  /// still report it.
  int joins_reordered = 0;
  /// Compile-only stubs, always 0: perfbench/src/cold.cc is their only
  /// user, and ROADMAP item 4, step 1 (TracedRun calls Run) deletes them.
  int selects_pushed = 0;
  int key_distincts_removed = 0;
  /// Structural step chains collapsed into kPathScan operators by the
  /// path rewrite (opt/path_rewrite.h); zero when path_summary is off.
  int structural_answers = 0;
};

/// Knobs for a single Optimize invocation.
struct OptimizeOptions {
  /// Run the CSE/DAG-ification pass after the peephole fixpoint:
  /// bottom-up structural hashing merges equivalent subtrees into
  /// shared nodes, so the executor's shared-subplan memoization (and
  /// the subplan-result cache) fires once per distinct computation.
  bool cse = true;
  /// Run the path rewrite after the peephole fixpoint: collapse purely
  /// structural step chains rooted at fn:doc into kPathScan operators
  /// the executor answers from the documents' path summaries
  /// (opt/path_rewrite.h).
  bool path_summary = false;
  /// Compile-only stubs, read by nothing: perfbench/src/cold.cc is their
  /// only user, and ROADMAP item 4, step 1 (TracedRun calls Run) deletes
  /// them.
  bool join_opt = false;
  const xml::Database* db = nullptr;
};

/// Peephole optimizer over the algebra DAG (paper Sec. 2: "This
/// complexity may significantly be reduced by peep-hole style
/// optimization [5]").
///
/// Rewrites, iterated to a fixpoint:
///  * π∘π fusion (the loop-lifting compiler emits long renaming chains),
///  * dead projection entries (columns no consumer reads are dropped),
///  * π over attach when the attached column is dead,
///  * δ elimination after a staircase join (its output is already
///    duplicate-free and document-ordered per iter — the operator's
///    postcondition, paper Sec. 2),
///  * ∪ with a statically empty side.
/// Then (OptimizeOptions::path_summary) the path rewrite, and
/// (OptimizeOptions::cse) one CSE pass: loop-lifting emits plans
/// riddled with textually distinct but structurally identical subtrees;
/// hash-consing merges them so every distinct computation is evaluated
/// exactly once.
///
/// The result is a fresh DAG; the input plan is not modified. Every
/// rewrite preserves the plan's result (verified by the equivalence
/// test-suite in tests/opt/).
Result<algebra::OpPtr> Optimize(const algebra::OpPtr& root,
                                OptimizeStats* stats = nullptr,
                                const OptimizeOptions& opts = {});

/// Merge structurally identical subtrees of `root` into shared nodes
/// (standalone CSE entry point; Optimize calls this when
/// OptimizeOptions::cse is set). Returns a fresh DAG wherever sharing
/// changed; untouched subtrees are reused. `merges` (optional)
/// accumulates the number of distinct nodes eliminated.
Result<algebra::OpPtr> CseMerge(const algebra::OpPtr& root,
                                int* merges = nullptr);

/// Process-wide default for the CSE pass: the PF_CSE environment
/// variable, read once. Unset or any value but "0" = on.
bool CseDefault();

/// Compile-only stub: perfbench/src/cold.cc is its only user, and
/// ROADMAP item 4, step 1 (TracedRun calls Run) deletes it.
inline bool JoinOptDefault() { return false; }

/// Process-wide default for path-summary consumption (the path rewrite
/// and staircase partition pruning): the PF_PATHSUM environment
/// variable, read once. Unset or any value but "0" = on.
bool PathSumDefault();

/// Compile-only stub: perfbench/src/cold.cc is its only user, and
/// ROADMAP item 4, step 1 (TracedRun calls Run) deletes it.
struct PipelineStats {
  int fused_ops = 0;
};

/// Compile-only stub: perfbench/src/cold.cc is its only user, and
/// ROADMAP item 4, step 1 (TracedRun calls Run) deletes it.
inline Status AnnotatePipelines(const algebra::OpPtr&, PipelineStats*) {
  return Status::OK();
}

}  // namespace pathfinder::opt

#endif  // PATHFINDER_OPT_OPTIMIZE_H_
