#ifndef PATHFINDER_BAT_KERNEL_H_
#define PATHFINDER_BAT_KERNEL_H_

#include <algorithm>
#include <atomic>
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
  /// Morsel grain (rows) for filters and joins (clamped to
  /// [64, 1<<20]).
  uint32_t morsel_rows = 4096;
  /// Initial sorted-run length and merge-split grain for SortPerm
  /// (clamped to [256, 1<<22]).
  uint32_t sort_chunk_rows = 8192;

  /// Clamped copy of *this (what the kernels actually use).
  KernelTuning Clamped() const;
};

// Every bulk operator takes an optional ThreadPool. nullptr (the
// default) runs the same morsels inline on the calling thread; only
// StableSortRows (so SortPerm), DistinctIndices and DifferenceIndices
// switch to a cheaper serial algorithm without a pool. A pool
// evaluates row morsels in parallel with deterministic, ordered merges
// — the result is byte-identical at every thread count (see DESIGN.md
// "Parallel execution" for the invariants each operator maintains).

/// Gather every column of `t` — i.e., select the given rows.
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

/// Stable sort of rows 0..n-1 under `cmp(a, b) -> Result<int>`, a
/// three-way comparator (negative when row a sorts before row b, 0 on a
/// tie); returns the permutation. The kernels' one row sort: a linear
/// pre-check returns the identity when the rows are already in order.
/// Otherwise, without a pool or below two runs, one std::stable_sort;
/// with a pool a parallel merge sort: runs of sort_chunk_rows are
/// stable-sorted concurrently, then every merge level splits each
/// pairwise merge into independent output segments via merge-path
/// binary search, so the final level parallelizes too. Ties take the
/// lower-run element, which reproduces std::stable_sort exactly. The
/// first comparator error is returned, and no merge runs on the
/// meaningless split points an error leaves.
template <typename Cmp>
Result<IdxVec> StableSortRows(size_t n, const Cmp& cmp,
                              ThreadPool* tp = nullptr,
                              const KernelTuning& kt = KernelTuning());

/// Stable sort permutation by key columns (lexicographic): StableSortRows
/// under the row comparison of the keys. `pool` is needed to order
/// STR/ITEM keys. `desc` (optional, parallel to `keys`) flips the
/// direction of individual keys.
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

namespace sort_internal {

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

}  // namespace sort_internal

template <typename Cmp>
Result<IdxVec> StableSortRows(size_t n, const Cmp& cmp, ThreadPool* tp,
                              const KernelTuning& kt) {
  const size_t run = kt.Clamped().sort_chunk_rows;
  IdxVec perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<RowIdx>(i);
  // Operator outputs are frequently already in order (the staircase
  // join emits document order per iter, unions of ordered inputs stay
  // grouped), so one linear pre-check saves the O(n log n) sort. Each
  // morsel tests its adjacent pairs, including the pair straddling the
  // next morsel's boundary.
  std::atomic<bool> sorted{true};
  PF_RETURN_NOT_OK(ParallelForStatus(
      tp, n > 0 ? n - 1 : 0, run,
      [&](size_t, size_t lo, size_t hi) -> Status {
        if (!sorted.load(std::memory_order_relaxed)) return Status::OK();
        for (size_t i = lo; i < hi; ++i) {
          PF_ASSIGN_OR_RETURN(int c, cmp(static_cast<RowIdx>(i),
                                         static_cast<RowIdx>(i + 1)));
          if (c > 0) {
            sorted.store(false, std::memory_order_relaxed);
            break;
          }
        }
        return Status::OK();
      }));
  if (sorted.load(std::memory_order_relaxed)) return perm;
  // The strict order the sort and the merges use: a comparator error
  // is kept in *st (the first one) and orders the pair as a tie.
  auto less_into = [&cmp](Status* st) {
    return [&cmp, st](RowIdx a, RowIdx b) {
      Result<int> c = cmp(a, b);
      if (!c.ok()) {
        if (st->ok()) *st = c.status();
        return false;
      }
      return *c < 0;
    };
  };
  if (tp == nullptr || n < 2 * run) {
    Status st;
    std::stable_sort(perm.begin(), perm.end(), less_into(&st));
    PF_RETURN_NOT_OK(st);
    return perm;
  }
  // Phase 1: stable-sort fixed-size runs concurrently.
  PF_RETURN_NOT_OK(ParallelForStatus(
      tp, n, run, [&](size_t, size_t lo, size_t hi) -> Status {
        Status st;
        std::stable_sort(perm.begin() + static_cast<ptrdiff_t>(lo),
                         perm.begin() + static_cast<ptrdiff_t>(hi),
                         less_into(&st));
        return st;
      }));
  // Phase 2: merge adjacent runs level by level, every pairwise merge
  // split into independent output segments of `run` rows. std::merge
  // takes the left (= lower-run) element on ties and MergeSplit uses
  // the same rule, so the permutation is exactly the serial one.
  IdxVec buf(n);
  IdxVec* src = &perm;
  IdxVec* dst = &buf;
  struct Seg {
    size_t a, mid, b;       // merge input: [a, mid) with [mid, b)
    size_t out_lo, out_hi;  // output segment within [a, b)
  };
  std::vector<Seg> segs;
  for (size_t width = run; width < n; width *= 2) {
    segs.clear();
    for (size_t a = 0; a < n; a += 2 * width) {
      size_t mid = std::min(n, a + width);
      size_t b = std::min(n, a + 2 * width);
      for (size_t lo = a; lo < b; lo += run) {
        segs.push_back({a, mid, b, lo, std::min(b, lo + run)});
      }
    }
    PF_RETURN_NOT_OK(ParallelForStatus(
        tp, segs.size(), 1, [&](size_t si, size_t, size_t) -> Status {
          const Seg& sg = segs[si];
          Status st;
          auto less = less_into(&st);
          const RowIdx* av = src->data() + sg.a;
          size_t na = sg.mid - sg.a;
          const RowIdx* bv = src->data() + sg.mid;
          size_t nb = sg.b - sg.mid;
          size_t i0 = sort_internal::MergeSplit(av, na, bv, nb,
                                                sg.out_lo - sg.a, less);
          size_t i1 = sort_internal::MergeSplit(av, na, bv, nb,
                                                sg.out_hi - sg.a, less);
          // A comparator error makes the split points meaningless (and
          // possibly inverted): stop before handing them to std::merge.
          PF_RETURN_NOT_OK(st);
          size_t j0 = (sg.out_lo - sg.a) - i0;
          size_t j1 = (sg.out_hi - sg.a) - i1;
          std::merge(av + i0, av + i1, bv + j0, bv + j1,
                     dst->begin() + static_cast<ptrdiff_t>(sg.out_lo),
                     less);
          return st;
        }));
    std::swap(src, dst);
  }
  if (src != &perm) perm = std::move(*src);
  return perm;
}

}  // namespace pathfinder::bat

#endif  // PATHFINDER_BAT_KERNEL_H_
