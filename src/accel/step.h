#ifndef PATHFINDER_ACCEL_STEP_H_
#define PATHFINDER_ACCEL_STEP_H_

#include <vector>

#include "accel/axis.h"
#include "base/thread_pool.h"
#include "xml/document.h"

namespace pathfinder::accel {

/// Naive single-context axis step: evaluate `axis::test` from context
/// node `v` by region selection over the pre|size|level encoding (the
/// "tree-unaware RDBMS" strategy the paper improves on). Results are
/// appended to `out` in document order.
///
/// `root` is the document node of v's tree: 0 for a stored document,
/// Document::TreeRoot(v) in a constructed forest. Following and
/// preceding, the only axes that could leave the tree, stay inside it.
///
/// This is the correctness oracle for the staircase join and the
/// ablation baseline of bench_staircase.
void NaiveStep(const xml::Document& doc, xml::Pre root, xml::Pre v,
               Axis axis, const NodeTest& test, std::vector<xml::Pre>* out);

/// Counters reported by the staircase join (ablation bench E6).
struct StaircaseStats {
  size_t contexts_in = 0;
  size_t contexts_pruned = 0;  // removed by the pruning phase
  size_t nodes_scanned = 0;    // encoding rows touched
  size_t results = 0;
  /// Path-summary consumption (PF_PATHSUM). `path_partitions_pruned`
  /// counts summary path partitions a name-test scan never fanned out
  /// to (the non-matching element paths, once per pruned staircase
  /// call); `structural_answers` counts step evaluations answered
  /// entirely from the summary's partitions (kPathScan groups) without
  /// touching the encoding. Both are computed in the serial planning
  /// phase, so they are identical at every thread count.
  size_t path_partitions_pruned = 0;
  size_t structural_answers = 0;

  void Reset() { *this = StaircaseStats{}; }

  /// Accumulate counters from another evaluation (used to fold
  /// per-group stats back together when Step groups run in parallel).
  void Merge(const StaircaseStats& o) {
    contexts_in += o.contexts_in;
    contexts_pruned += o.contexts_pruned;
    nodes_scanned += o.nodes_scanned;
    results += o.results;
    path_partitions_pruned += o.path_partitions_pruned;
    structural_answers += o.structural_answers;
  }
};

/// Staircase join (paper [7], Sec. 2 "XPath axes"): evaluate one axis
/// step for a whole *sequence* of context nodes in a single pass.
///
/// `contexts` must be duplicate-free and sorted by pre (document order);
/// the result is duplicate-free and in document order — i.e. the
/// operator has the fs:distinct-doc-order postcondition built in, which
/// is why the compiler can drop explicit sort/dedup steps after it.
///
/// `root` bounds following and preceding to one tree, as in NaiveStep:
/// for those two axes every context must lie in the tree whose
/// document node is `root` (0 for a stored document). The other axes
/// stay inside their contexts' trees on their own and ignore it.
///
/// Tree-awareness exploited:
///  * pruning: context nodes covered by another context are dropped
///    before scanning (descendant/ancestor/self variants),
///  * partitioning: the remaining contexts partition the pre axis, so
///    each encoding row is inspected at most once,
///  * skipping: subtrees that cannot contain results are jumped over
///    via the size column.
///
/// With a ThreadPool the scan phase runs morsel-parallel: the
/// partitioning property above means the pruned contexts' scan ranges
/// are disjoint and ascending, so range chunks can be evaluated
/// independently and concatenated in chunk order without any re-sort —
/// results and stats are identical to the serial evaluation at every
/// thread count. Pruning itself stays serial (it is a linear pass over
/// the context sequence, tiny next to the scans).
/// With `summary` (the document's path summary, see xml/path_summary.h)
/// the name-test variants of the region-scanning axes — descendant,
/// descendant-or-self, following, preceding — skip the encoding scan
/// entirely: the candidate set is read from the tag's path partitions
/// (binary-searched to the scan range and merged in document order), so
/// only rows that can match are ever touched. Results and their order
/// are identical with and without a summary; only `nodes_scanned`
/// drops to the candidate count and `path_partitions_pruned` reports
/// the partitions skipped.
void StaircaseJoin(const xml::Document& doc, xml::Pre root,
                   const std::vector<xml::Pre>& contexts, Axis axis,
                   const NodeTest& test, std::vector<xml::Pre>* out,
                   StaircaseStats* stats = nullptr,
                   ThreadPool* tp = nullptr,
                   const xml::PathSummary* summary = nullptr);

}  // namespace pathfinder::accel

#endif  // PATHFINDER_ACCEL_STEP_H_
