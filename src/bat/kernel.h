#ifndef PATHFINDER_BAT_KERNEL_H_
#define PATHFINDER_BAT_KERNEL_H_

#include <algorithm>
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
/// pair order at any partition count, the row sort reproduces
/// std::stable_sort at any grain, and GroupAgg's floating-point
/// association is pinned to a fixed internal grain — so the bytes
/// never depend on the tuning, only the speed does.
struct KernelTuning {
  /// log2 of the join/aggregation partition count (clamped to [1, 12];
  /// 2^bits private hash tables are built per join).
  int radix_bits = 6;
  /// Morsel grain (rows) for filters and joins (clamped to
  /// [64, 1<<20]).
  uint32_t morsel_rows = 4096;
  /// The row sort's grain (clamped to [256, 1<<22]): the morsel of its
  /// run detection (and of Mark's numbering), the chunk a run of short
  /// runs is stable-sorted within, and the output segment every merge
  /// is split into.
  uint32_t sort_chunk_rows = 8192;

  /// Clamped copy of *this (what the kernels actually use).
  KernelTuning Clamped() const;
};

// Every bulk operator takes an optional ThreadPool. nullptr (the
// default) runs the same morsels inline on the calling thread; only
// DistinctIndices and DifferenceIndices switch to a cheaper serial
// algorithm without a pool. A pool
// evaluates row morsels in parallel with deterministic, ordered merges
// — the result is byte-identical at every thread count (see DESIGN.md
// "Parallel execution" for the invariants each operator maintains).

/// Gather every column of `t` — i.e., select the given rows. An `idx`
/// of exactly 0..rows-1 selects nothing new: the result shares t's
/// ColumnPtrs, by GatherPairs' rule.
Table GatherTable(const Table& t, const IdxVec& idx,
                  ThreadPool* tp = nullptr);

/// σ: the rows of `t` whose BOOL predicate cell is true, in row order.
/// Each column is scattered directly into its exact output slice, with
/// no intermediate index vector. The executor's one selection kernel.
Table FilterGather(const Table& t, const Column& pred,
                   ThreadPool* tp = nullptr,
                   const KernelTuning& kt = KernelTuning());

/// Matching join row pairs grouped by probe-side chunk, in chunk order:
/// concatenating (li[c], ri[c]) over all c yields the join's pair list.
/// GatherPairs builds the joined table from the chunks.
struct JoinPairChunks {
  std::vector<IdxVec> li, ri;
};

/// Hash equi-join on one key column per side. Emits matching row pairs:
/// for each left row in order, all matching right rows in right order
/// (so the left order is the major result order, as the loop-lifting
/// compilation relies on), in one chunk per morsel of the left side.
/// Key columns must have identical type, one of INT, STR, ITEM.
/// `pool` is used to canonicalize ITEM keys (untyped atomics join under
/// their typed interpretation, integers under their double value).
/// The right (build) side is chained per key into one flat table,
/// head[] per slot and next[] per row; the input alone picks the slot
/// function. INT build keys spanning at most 2 * rows + 64 values (the
/// dense iter surrogates of the mapping joins) take slot = key - min: a
/// positional join, no hash and no probing. Otherwise, below the
/// morsel threshold on both sides, one table hashes all build rows.
/// Above it both sides go through the radix-partitioned path (even
/// serially): the build side is scattered into 2^radix_bits partitions
/// by key-hash radix, one private table is chained per partition, and
/// probe-side morsels emit pairs partition-locally. Every path chains a
/// key's rows ascending, so the pair order is the same on all of them.
Status HashJoinPairsChunked(const Column& l, const Column& r,
                            const StringPool& pool, JoinPairChunks* out,
                            ThreadPool* tp = nullptr,
                            const KernelTuning& kt = KernelTuning());

/// Theta join on a comparison predicate with numeric promotion
/// (used for the paper's Q11/Q12-style `>` joins whose output is
/// inherently quadratic), in the same left-major pair order. Key
/// columns INT, DBL or ITEM; non-numeric ITEM keys compare by value.
Status ThetaJoinPairsChunked(const Column& l, const Column& r, CmpOp op,
                             const StringPool& pool, JoinPairChunks* out,
                             ThreadPool* tp = nullptr);

/// The joined table of a pair list: every column of `l` gathered at
/// the left rows, then every column of `r` at the right rows, names
/// preserved. Each chunk writes its own output slice, so the global
/// pair vectors are never materialized. A side whose concatenated
/// indices are exactly 0..rows-1 (the 1:1 mapping join) is not
/// gathered: the joined table shares its ColumnPtrs, which are never
/// mutated once built.
Table GatherPairs(const Table& l, const Table& r, const JoinPairChunks& pc,
                  ThreadPool* tp = nullptr);

/// Stable sort of rows 0..n-1 under `cmp(a, b) -> int`, a three-way
/// comparator (negative when row a sorts before row b, 0 on a tie) that
/// must be a strict weak order: the merge-path splits assume it, as
/// std::stable_sort does. Returns the permutation. The kernels' one
/// row sort. One pass over adjacent row pairs finds the run starts, the
/// rows that sort before their predecessor: input already in order
/// costs that pass alone, and k presorted runs cost k - 1 stable
/// merges. A chunk of sort_chunk_rows rows whose runs average under 32
/// rows (an `order by` over unordered keys) is first stable-sorted
/// whole and becomes one run, as TimSort extends short runs. The runs
/// are merged pairwise, level by level; each merge is split into output
/// segments of sort_chunk_rows rows by merge-path search, so with a
/// pool the merges and their segments run in parallel. Ties take the
/// left run's row, which reproduces std::stable_sort exactly: the
/// permutation is unique, the same at every thread count and grain.
template <typename Cmp>
IdxVec StableSortRows(size_t n, const Cmp& cmp, ThreadPool* tp = nullptr,
                      const KernelTuning& kt = KernelTuning());

/// Stable sort permutation by key columns (lexicographic; empty `keys`
/// means all columns), sorted as StableSortRows does. The keys are
/// resolved once into typed compares: INT, DBL and BOOL by value, STR
/// through `pool`, ITEM by ItemOrder; the run detection classifies the
/// row pairs one key column at a time. `desc` (optional, parallel to
/// `keys`) flips the direction of individual keys.
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
/// The run detection of SortPerm over (part, order) also finds the
/// partition boundaries: rows already in that order, as most plans
/// deliver them, are numbered from the boundaries in the same
/// morsel-parallel pass, with no permutation. Otherwise the rows are
/// sorted as SortPerm sorts them and numbered in sorted order.
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

namespace sort_internal {

// Pair flags, one byte per row: flags[i] (i >= 1) describes the row
// pair (i - 1, i). kRunStart marks a descent, row i sorting strictly
// before row i - 1, so a presorted run starts at row i. flags[0] is 0.
// The typed run detection of SortPerm and Mark keeps further bits.
constexpr uint8_t kRunStart = 1;

// Runs shorter than this on average make their chunk a chunk sort.
constexpr size_t kMinRunRows = 32;

// Merge-path split: the number of A elements among the first `diag`
// outputs of a stable merge of A (na elements) and B (nb elements)
// under `less`, with ties taken from A — exactly std::merge's rule.
// Splitting one merge at several diagonals and merging the pieces
// therefore reproduces the full std::merge output piecewise.
template <typename Less>
size_t MergeSplit(const RowIdx* a, size_t na, const RowIdx* b, size_t nb,
                  size_t diag, const Less& less) {
  size_t lo = diag > nb ? diag - nb : 0;
  size_t hi = std::min(diag, na);
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    // a[mid] precedes b[diag-1-mid] in the merge iff !(b < a).
    if (!less(b[diag - 1 - mid], a[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// The stable sort permutation of rows 0..flags.size()-1 under the strict
// order `less`, given the run starts in `flags` (see StableSortRows).
template <typename Less>
IdxVec MergeRuns(const std::vector<uint8_t>& flags, const Less& less,
                 ThreadPool* tp, const KernelTuning& kt) {
  const size_t n = flags.size();
  const size_t grain = kt.Clamped().sort_chunk_rows;
  IdxVec perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<RowIdx>(i);
  if (n == 0) return perm;
  // Per chunk: its run starts, or one chunk sort when its runs are
  // short. A sorted chunk is one run, cut at both chunk boundaries.
  const size_t chunks = ThreadPool::NumChunks(n, grain);
  std::vector<IdxVec> starts(chunks);
  std::vector<uint8_t> sorted(chunks, 0);
  ParallelFor(tp, n, grain, [&](size_t c, size_t lo, size_t hi) {
    IdxVec& s = starts[c];
    for (size_t i = lo; i < hi; ++i) {
      if (flags[i] & kRunStart) s.push_back(static_cast<RowIdx>(i));
    }
    const size_t inner = s.size() - (!s.empty() && s[0] == lo ? 1 : 0);
    if (inner > 0 && hi - lo < kMinRunRows * (inner + 1)) {
      std::stable_sort(perm.begin() + static_cast<ptrdiff_t>(lo),
                       perm.begin() + static_cast<ptrdiff_t>(hi), less);
      sorted[c] = 1;
    }
  });
  std::vector<size_t> bounds = {0};  // run starts, then n
  auto cut = [&bounds](size_t i) {
    if (i > bounds.back()) bounds.push_back(i);
  };
  for (size_t c = 0; c < chunks; ++c) {
    if (sorted[c] || (c > 0 && sorted[c - 1])) cut(c * grain);
    if (!sorted[c]) {
      for (RowIdx i : starts[c]) cut(i);
    }
  }
  bounds.push_back(n);
  if (bounds.size() == 2) return perm;
  // Merge runs 2j and 2j + 1 at every level (an odd last run is copied
  // through), each merge split into output segments of `grain` rows.
  // std::merge takes the left element on ties and MergeSplit uses the
  // same rule, so every piece is exactly its slice of the merge.
  IdxVec buf(n);
  IdxVec* src = &perm;
  IdxVec* dst = &buf;
  struct Seg {
    size_t a, mid, b;       // merge input: [a, mid) with [mid, b)
    size_t out_lo, out_hi;  // output segment within [a, b)
  };
  std::vector<Seg> segs;
  std::vector<size_t> next;
  while (bounds.size() > 2) {
    segs.clear();
    next.clear();
    const size_t runs = bounds.size() - 1;
    for (size_t j = 0; j < runs; j += 2) {
      const size_t a = bounds[j];
      const size_t mid = bounds[j + 1];
      const size_t b = j + 1 < runs ? bounds[j + 2] : mid;
      next.push_back(a);
      for (size_t lo = a; lo < b; lo += grain) {
        segs.push_back({a, mid, b, lo, std::min(b, lo + grain)});
      }
    }
    next.push_back(n);
    ParallelFor(tp, segs.size(), 1, [&](size_t si, size_t, size_t) {
      const Seg& sg = segs[si];
      const RowIdx* av = src->data() + sg.a;
      const size_t na = sg.mid - sg.a;
      const RowIdx* bv = src->data() + sg.mid;
      const size_t nb = sg.b - sg.mid;
      const size_t i0 =
          MergeSplit(av, na, bv, nb, sg.out_lo - sg.a, less);
      const size_t i1 =
          MergeSplit(av, na, bv, nb, sg.out_hi - sg.a, less);
      std::merge(av + i0, av + i1, bv + (sg.out_lo - sg.a - i0),
                 bv + (sg.out_hi - sg.a - i1),
                 dst->begin() + static_cast<ptrdiff_t>(sg.out_lo), less);
    });
    bounds.swap(next);
    std::swap(src, dst);
  }
  if (src != &perm) perm = std::move(*src);
  return perm;
}

}  // namespace sort_internal

template <typename Cmp>
IdxVec StableSortRows(size_t n, const Cmp& cmp, ThreadPool* tp,
                      const KernelTuning& kt) {
  std::vector<uint8_t> flags(n, 0);
  ParallelFor(tp, n, kt.Clamped().sort_chunk_rows,
              [&](size_t, size_t lo, size_t hi) {
                for (size_t i = std::max<size_t>(lo, 1); i < hi; ++i) {
                  if (cmp(static_cast<RowIdx>(i - 1),
                          static_cast<RowIdx>(i)) > 0) {
                    flags[i] = sort_internal::kRunStart;
                  }
                }
              });
  return sort_internal::MergeRuns(
      flags, [&cmp](RowIdx a, RowIdx b) { return cmp(a, b) < 0; }, tp,
      kt);
}

}  // namespace pathfinder::bat

#endif  // PATHFINDER_BAT_KERNEL_H_
