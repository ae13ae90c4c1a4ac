#ifndef PATHFINDER_ACCEL_STEP_H_
#define PATHFINDER_ACCEL_STEP_H_

#include <cstdint>
#include <functional>
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
  /// to (the non-matching element paths, once per run of a region
  /// axis); `structural_answers` counts step evaluations answered
  /// entirely from the summary's partitions (kPathScan groups) without
  /// touching the encoding. Both are computed in the serial planning
  /// phase, so they are identical at every thread count.
  size_t path_partitions_pruned = 0;
  size_t structural_answers = 0;

  void Reset() { *this = StaircaseStats{}; }

  /// Accumulate counters from another evaluation (per-chunk counters
  /// fold back together in chunk order).
  void Merge(const StaircaseStats& o) {
    contexts_in += o.contexts_in;
    contexts_pruned += o.contexts_pruned;
    nodes_scanned += o.nodes_scanned;
    results += o.results;
    path_partitions_pruned += o.path_partitions_pruned;
    structural_answers += o.structural_answers;
  }
};

/// A node of a Step's context or result relation: (fragment << 32) |
/// pre, the payload of a node item, so ascending refs are ascending
/// (fragment, document order).
using NodeRef = uint64_t;

inline NodeRef MakeRef(uint32_t frag, xml::Pre pre) {
  return (static_cast<NodeRef>(frag) << 32) | pre;
}
inline uint32_t RefFrag(NodeRef r) { return static_cast<uint32_t>(r >> 32); }
inline xml::Pre RefPre(NodeRef r) { return static_cast<xml::Pre>(r); }

/// A loop-lifted node relation: row k is (iter[k], node[k]).
struct IterNodes {
  std::vector<int64_t> iter;
  std::vector<NodeRef> node;

  size_t size() const { return iter.size(); }
  bool empty() const { return iter.empty(); }
  void Add(int64_t it, NodeRef n) {
    iter.push_back(it);
    node.push_back(n);
  }
};

/// What the join reads of one fragment: its encoding and, when the
/// join may consume it, its path summary (else null).
struct Fragment {
  const xml::Document* doc = nullptr;
  const xml::PathSummary* summary = nullptr;
};

/// Resolves a fragment id. The join calls it once per fragment change
/// along the relation, possibly from several threads at once.
using FragmentFn = std::function<Fragment(uint32_t frag)>;

/// Polled once per chunk; true skips the chunk, its rows and counters.
using StopFn = std::function<bool()>;

/// Loop-lifted staircase join (paper [7], Sec. 2 "XPath axes"):
/// evaluate one axis step for every iteration of a Step in one pass.
///
/// `contexts` must be sorted by (iter, node) and duplicate-free per
/// iteration. A *run* is a maximal stretch of contexts with one iter
/// and one fragment; for following and preceding in a constructed
/// forest it also ends at a tree boundary, as those are the only axes
/// that could leave a context's tree. Each run is joined as one
/// context sequence, and its results are appended to `out` as (iter,
/// node) rows: duplicate-free per iteration and in (iter, document
/// order) — the fs:distinct-doc-order postcondition is built in, which
/// is why the compiler can drop explicit sort/dedup steps after it.
///
/// Tree-awareness exploited per run:
///  * pruning: context nodes covered by another context are dropped
///    before scanning (descendant/ancestor/self variants),
///  * partitioning: the remaining contexts partition the pre axis, so
///    each encoding row is inspected at most once,
///  * skipping: subtrees that cannot contain results are jumped over
///    via the size column.
/// With a path summary (Fragment::summary) the name-test variants of
/// the region axes — descendant, descendant-or-self, following,
/// preceding — read the candidate set from the tag's path partitions
/// instead of scanning the encoding; results and their order are the
/// same, only `nodes_scanned` drops to the candidate count and
/// `path_partitions_pruned` reports the partitions skipped.
///
/// Work is cut into chunks by input size alone: the local axes (self,
/// attribute, child, parent, siblings, ancestor) by contexts, the
/// region axes by the flat row space of all runs' surviving scan
/// ranges (after a serial pruning pass), so a single `//x` root
/// context still splits. Chunks run on `tp` when given and concatenate
/// in chunk order; where one iteration's results interleave (child,
/// parent, siblings, ancestor) its slice is sorted, and deduplicated
/// where several contexts can reach one node. Results and stats are
/// identical at every thread count, and identical to joining each run
/// on its own.
void StaircaseJoin(const IterNodes& contexts, const FragmentFn& frags,
                   Axis axis, const NodeTest& test, IterNodes* out,
                   StaircaseStats* stats = nullptr, ThreadPool* tp = nullptr,
                   const StopFn& stop = {});

/// The join for one context sequence: one iteration over `doc`.
/// `contexts` must be duplicate-free and in document order; results
/// are appended to `out` in document order.
void StaircaseJoin(const xml::Document& doc,
                   const std::vector<xml::Pre>& contexts, Axis axis,
                   const NodeTest& test, std::vector<xml::Pre>* out,
                   StaircaseStats* stats = nullptr, ThreadPool* tp = nullptr,
                   const xml::PathSummary* summary = nullptr);

/// The staircase ablation (QueryContext::use_staircase = false): a
/// NaiveStep per context, then each iteration's results sorted and
/// deduplicated. Same input contract and output as StaircaseJoin.
void NaiveJoin(const IterNodes& contexts, const FragmentFn& frags,
               Axis axis, const NodeTest& test, IterNodes* out);

}  // namespace pathfinder::accel

#endif  // PATHFINDER_ACCEL_STEP_H_
