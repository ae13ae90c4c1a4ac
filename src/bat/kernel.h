#ifndef PATHFINDER_BAT_KERNEL_H_
#define PATHFINDER_BAT_KERNEL_H_

#include <cstdint>
#include <vector>

#include "base/result.h"
#include "base/thread_pool.h"
#include "bat/table.h"

namespace pathfinder::bat {

/// Row index into a Table (tables stay < 4G rows at our scales).
using RowIdx = uint32_t;
using IdxVec = std::vector<RowIdx>;

/// Comparison operators used by selections and theta joins.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Tuning for the partitioned parallel kernels. The member defaults are
/// the process default; QueryOptions can override per query. Every
/// setting is RESULT-NEUTRAL: the radix join emits the exact serial
/// pair order at any partition count, the merge sort reproduces
/// std::stable_sort at any run length, and GroupAgg's floating-point
/// association is pinned to a fixed internal grain — so the bytes
/// never depend on the tuning, only the speed does.
struct KernelTuning {
  /// log2 of the join/aggregation partition count (clamped to [1, 12];
  /// 2^bits private hash tables are built per join).
  int radix_bits = 6;
  /// Morsel grain (rows) for filters, joins and fused pipeline
  /// fragments (clamped to [64, 1<<20]).
  uint32_t morsel_rows = 4096;
  /// Initial sorted-run length and merge-split grain for SortPerm
  /// (clamped to [256, 1<<22]).
  uint32_t sort_chunk_rows = 8192;

  /// Clamped copy of *this (what the kernels actually use).
  KernelTuning Clamped() const;
};

// Every bulk operator takes an optional ThreadPool. nullptr (the
// default) runs the serial code path; a pool evaluates row morsels in
// parallel with deterministic, ordered merges — the result is
// byte-identical at every thread count (see DESIGN.md "Parallel
// execution" for the invariants each operator maintains).

/// Indices of rows whose BOOL predicate cell is true, in row order.
IdxVec FilterIndices(const Column& pred, ThreadPool* tp = nullptr,
                     const KernelTuning& kt = KernelTuning());

/// Positional fetch: result[i] = c[idx[i]]  (MonetDB leftfetchjoin).
ColumnPtr Gather(const Column& c, const IdxVec& idx,
                 ThreadPool* tp = nullptr);

/// Gather every column of `t` — i.e., select the given rows.
Table GatherTable(const Table& t, const IdxVec& idx,
                  ThreadPool* tp = nullptr);

/// Fused σ+gather: the rows of `t` whose BOOL predicate cell is true,
/// in row order — equivalent to GatherTable(t, FilterIndices(pred)) but
/// scatters each column directly into its exact output slice, skipping
/// the intermediate index vector. Backbone of singleton-σ pipeline
/// fragments.
Table FilterGather(const Table& t, const Column& pred,
                   ThreadPool* tp = nullptr,
                   const KernelTuning& kt = KernelTuning());

/// Matching join row pairs grouped by probe-side chunk, in chunk order:
/// concatenating (li[c], ri[c]) over all c yields exactly the pair list
/// HashJoinIndices / ThetaJoinIndices emit. Fused pipeline fragments
/// consume the chunks directly — one morsel per chunk — instead of
/// materializing a global pair vector and a joined table.
struct JoinPairChunks {
  std::vector<IdxVec> li, ri;
  size_t total = 0;  ///< sum of li[c].size() over all chunks
};

/// Chunked-pair form of HashJoinIndices (same key/canonicalization
/// semantics, same deterministic pair order).
Status HashJoinPairsChunked(const Column& l, const Column& r,
                            const StringPool& pool, JoinPairChunks* out,
                            ThreadPool* tp = nullptr,
                            const KernelTuning& kt = KernelTuning());

/// Chunked-pair form of ThetaJoinIndices.
Status ThetaJoinPairsChunked(const Column& l, const Column& r, CmpOp op,
                             const StringPool& pool, JoinPairChunks* out,
                             ThreadPool* tp = nullptr);

/// Fused probe+gather equi-join: the joined table (left columns first,
/// then right columns, names preserved) built straight from the pair
/// chunks — the global pair index vectors are never materialized.
Status HashJoinGather(const Table& l, const Table& r, const Column& lk,
                      const Column& rk, const StringPool& pool, Table* out,
                      ThreadPool* tp = nullptr,
                      const KernelTuning& kt = KernelTuning());

/// Fused probe+gather theta join (see ThetaJoinIndices for semantics).
Status ThetaJoinGather(const Table& l, const Table& r, const Column& lk,
                       const Column& rk, CmpOp op, const StringPool& pool,
                       Table* out, ThreadPool* tp = nullptr);

/// Hash equi-join on one key column per side. Emits matching row pairs:
/// for each left row in order, all matching right rows in right order
/// (so the left order is the major result order, as the loop-lifting
/// compilation relies on). Key columns must have identical type, one of
/// INT, STR, ITEM.
/// `pool` is used to canonicalize ITEM keys (untyped atomics join under
/// their typed interpretation, integers under their double value).
/// Above the morsel threshold both sides go through the radix-
/// partitioned path (even serially): the build side is scattered into
/// 2^radix_bits partitions by key-hash radix, one private flat hash
/// table is built per partition (insertion-ordered chains, so every
/// key's row list is ascending), and probe-side morsels emit pairs
/// partition-locally; chunk-ordered concatenation reproduces the exact
/// serial left-major pair order.
Status HashJoinIndices(const Column& l, const Column& r,
                       const StringPool& pool, IdxVec* li, IdxVec* ri,
                       ThreadPool* tp = nullptr,
                       const KernelTuning& kt = KernelTuning());

/// Theta join on a comparison predicate with numeric promotion
/// (used for the paper's Q11/Q12-style `>` joins whose output is
/// inherently quadratic). Key columns INT, DBL or ITEM.
Status ThetaJoinIndices(const Column& l, const Column& r, CmpOp op,
                        const StringPool& pool, IdxVec* li, IdxVec* ri,
                        ThreadPool* tp = nullptr);

/// Stable sort permutation by key columns (lexicographic). `pool` is
/// needed to order STR/ITEM keys. `desc` (optional, parallel to `keys`)
/// flips the direction of individual keys. Parallel evaluation is a
/// full parallel merge sort: fixed-size runs are stable-sorted
/// concurrently, then every merge level splits each pairwise merge
/// into independent output segments via merge-path binary search —
/// the final level parallelizes too, leaving no serial merge phase.
/// Ties take the lower-run element, which reproduces the serial
/// stable sort permutation exactly.
Result<IdxVec> SortPerm(const Table& t, const std::vector<ColId>& keys,
                        const StringPool& pool,
                        const std::vector<uint8_t>& desc = {},
                        ThreadPool* tp = nullptr,
                        const KernelTuning& kt = KernelTuning());

/// First-occurrence row indices per distinct key tuple, in row order.
/// Empty `keys` means all columns. Parallel evaluation hash-partitions
/// the rows per morsel; each partition keeps its rows in ascending row
/// order, so first-occurrence winners match the serial scan exactly.
Result<IdxVec> DistinctIndices(const Table& t, const std::vector<ColId>& keys,
                               ThreadPool* tp = nullptr);

/// Row numbering (the paper's % operator / MonetDB mark): a new INT
/// column counting 1,2,... per `part` partition in `order`-key order
/// (stable w.r.t. existing row order). Result is aligned with t's rows.
Result<ColumnPtr> Mark(const Table& t, const std::vector<ColId>& part,
                       const std::vector<ColId>& order,
                       const StringPool& pool,
                       const std::vector<uint8_t>& order_desc = {},
                       ThreadPool* tp = nullptr,
                       const KernelTuning& kt = KernelTuning());

/// Rows of `a` whose key tuple does not appear in `b` (paper's \).
/// An empty `b` short-circuits to the identity index vector. Parallel
/// evaluation builds the probe sets hash-partitioned from b and probes
/// a's morsels independently; the kept-row order is a's row order.
Result<IdxVec> DifferenceIndices(const Table& a, const Table& b,
                                 const std::vector<ColId>& keys,
                                 ThreadPool* tp = nullptr);

/// Append b's rows under a's schema (paper's disjoint union; the caller
/// guarantees disjointness). b must contain every column of a, matched
/// by name.
Result<Table> UnionAll(const Table& a, const Table& b);

/// Grouped aggregate over an INT group column and an ITEM value column.
enum class AggKind { kCount, kSum, kAvg, kMax, kMin };

/// Returns a table (group INT, value ITEM) with one row per group present
/// in `t`, groups in first-appearance order. For kCount, `val_col` may be
/// kNoCol. Numeric aggregation promotes via ItemToDouble; a sum over only
/// kInt items stays integer.
/// Above a fixed row threshold the aggregation runs morsel-wise
/// (thread-local partials over a FIXED internal grain, so
/// floating-point sums are associated identically at every thread
/// count and tuning) and the partials are combined in parallel: groups
/// are radix-partitioned across 2^radix_bits private combine maps,
/// each partition folds its groups' partials in chunk order, and the
/// global first-appearance group order is rebuilt from recorded
/// (chunk, position) keys — no shared map is ever built.
Result<Table> GroupAgg(const Table& t, ColId group_col, ColId val_col,
                       AggKind kind, const StringPool& pool, ColId out_group,
                       ColId out_val,
                       ThreadPool* tp = nullptr,
                       const KernelTuning& kt = KernelTuning());

}  // namespace pathfinder::bat

#endif  // PATHFINDER_BAT_KERNEL_H_
