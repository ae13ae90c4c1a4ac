// Test helpers: a first-principles reference for the row sort. SortPerm
// and Mark must equal std::stable_sort under a row comparison that
// walks the key columns with a type switch per key (ITEM keys through
// ItemOrder), and a numbering that restarts wherever the sorted rows'
// partition keys differ. The inputs are the shapes the plans produce
// (one ordered run, the 2 and 4 runs of a sequence constructor, the
// many short runs of an `order by`) plus the edge cases: all-equal and
// descending keys, 0 and 1 rows, and ITEM keys whose ties only
// ItemOrder decides.

#ifndef PATHFINDER_TESTS_BAT_SORT_REFERENCE_H_
#define PATHFINDER_TESTS_BAT_SORT_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bat/item_ops.h"
#include "bat/kernel.h"
#include "bat/table.h"

namespace pathfinder::bat {

// Three-way comparison of two rows under the key columns; `desc`
// (parallel to cols, optional) flips individual keys.
inline int RefCompareRows(const std::vector<const Column*>& cols, size_t ra,
                          size_t rb, const StringPool& pool,
                          const std::vector<uint8_t>& desc) {
  for (size_t ki = 0; ki < cols.size(); ++ki) {
    const Column* c = cols[ki];
    const int flip = (ki < desc.size() && desc[ki]) ? -1 : 1;
    switch (c->type()) {
      case ColType::kInt: {
        int64_t a = c->ints()[ra], b = c->ints()[rb];
        if (a != b) return (a < b ? -1 : 1) * flip;
        break;
      }
      case ColType::kDbl: {
        // As numbers order: NaN before every other value.
        int cmp = ItemOrder(Item::Dbl(c->dbls()[ra]),
                            Item::Dbl(c->dbls()[rb]), pool);
        if (cmp != 0) return cmp * flip;
        break;
      }
      case ColType::kStr: {
        StrId a = c->strs()[ra], b = c->strs()[rb];
        if (a != b) {
          int cmp = pool.Get(a).compare(pool.Get(b));
          if (cmp != 0) return (cmp < 0 ? -1 : 1) * flip;
        }
        break;
      }
      case ColType::kBool: {
        int a = c->bools()[ra], b = c->bools()[rb];
        if (a != b) return (a < b ? -1 : 1) * flip;
        break;
      }
      case ColType::kItem: {
        int cmp = ItemOrder(c->items()[ra], c->items()[rb], pool);
        if (cmp != 0) return cmp * flip;
        break;
      }
    }
  }
  return 0;
}

// The named columns; an empty list means every column.
inline std::vector<const Column*> RefCols(const Table& t,
                                          const std::vector<ColId>& names) {
  std::vector<const Column*> cols;
  if (names.empty()) {
    for (size_t i = 0; i < t.num_cols(); ++i) cols.push_back(t.col(i).get());
  }
  for (ColId n : names) cols.push_back(t.GetCol(n).value().get());
  return cols;
}

inline IdxVec RefSortPerm(const Table& t, const std::vector<ColId>& keys,
                          const StringPool& pool,
                          const std::vector<uint8_t>& desc) {
  const std::vector<const Column*> cols = RefCols(t, keys);
  IdxVec perm(t.rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<RowIdx>(i);
  std::stable_sort(perm.begin(), perm.end(), [&](RowIdx a, RowIdx b) {
    return RefCompareRows(cols, a, b, pool, desc) < 0;
  });
  return perm;
}

inline std::vector<int64_t> RefMark(const Table& t,
                                    const std::vector<ColId>& part,
                                    const std::vector<ColId>& order,
                                    const StringPool& pool,
                                    const std::vector<uint8_t>& order_desc) {
  std::vector<ColId> keys = part;
  keys.insert(keys.end(), order.begin(), order.end());
  std::vector<uint8_t> desc(part.size(), 0);
  desc.insert(desc.end(), order_desc.begin(), order_desc.end());
  const IdxVec perm = RefSortPerm(t, keys, pool, desc);
  std::vector<const Column*> pcols;
  if (!part.empty()) pcols = RefCols(t, part);
  std::vector<int64_t> out(t.rows(), 0);
  int64_t counter = 0;
  for (size_t k = 0; k < perm.size(); ++k) {
    if (k == 0 || RefCompareRows(pcols, perm[k - 1], perm[k], pool, {}) != 0) {
      counter = 0;
    }
    out[perm[k]] = ++counter;
  }
  return out;
}

// One input table and the (part | order) keys it is numbered and sorted
// by. `desc` flips order keys.
struct SortCase {
  std::string name;
  Table t;
  std::vector<ColId> part, order;
  std::vector<uint8_t> desc;
};

// Rows of the sequence-constructor shape: `runs` runs in a row, each
// sorted by (iter, pos) with one ord value per run, so the rows are
// `runs` presorted runs under (iter, ord, pos). Run lengths are
// `lengths` in turn (a multiple of 256 puts later run starts on
// sort-chunk boundaries).
inline Table UnionRuns(const std::vector<size_t>& lengths, uint64_t seed) {
  Rng rng(seed);
  auto iter = Column::MakeInt(), ord = Column::MakeInt(),
       pos = Column::MakeInt();
  for (size_t r = 0; r < lengths.size(); ++r) {
    int64_t it = 1, p = 1;
    for (size_t i = 0; i < lengths[r]; ++i) {
      if (rng.Chance(0.3)) {
        it += rng.Range(1, 3);
        p = 1;
      }
      iter->ints().push_back(it);
      ord->ints().push_back(static_cast<int64_t>(r));
      pos->ints().push_back(p++);
    }
  }
  Table t;
  t.AddCol(InternCol("iter"), iter);
  t.AddCol(InternCol("ord"), ord);
  t.AddCol(InternCol("pos"), pos);
  return t;
}

// ITEM keys whose order only ItemOrder decides: nodes and attributes
// (which tie on equal raw), kInt values above 2^53 (which tie as
// doubles), doubles equal to ints, NaN (before every number), and
// strings next to untyped atomics of the same text. Sorted by iter,
// then item, in runs of `run` rows.
inline Table MixedItems(size_t n, size_t run, uint64_t seed,
                        StringPool* pool) {
  Rng rng(seed);
  auto iter = Column::MakeInt(), item = Column::MakeItem();
  const int64_t big = int64_t{1} << 53;
  for (size_t i = 0; i < n; ++i) {
    iter->ints().push_back(static_cast<int64_t>(i / run));
    switch (rng.Below(8)) {
      case 0:
        item->items().push_back(Item::Node(0, static_cast<uint32_t>(
                                                  rng.Below(20))));
        break;
      case 1:
        item->items().push_back(Item::Attr(0, static_cast<uint32_t>(
                                                  rng.Below(20))));
        break;
      case 2:
        item->items().push_back(Item::Int(big + rng.Range(0, 3)));
        break;
      case 3:
        item->items().push_back(Item::Int(rng.Range(-3, 3)));
        break;
      case 4:
        item->items().push_back(Item::Dbl(static_cast<double>(
            rng.Range(-3, 3))));
        break;
      case 5:
        item->items().push_back(
            Item::Str(pool->Intern("s" + std::to_string(rng.Below(4)))));
        break;
      case 6:
        item->items().push_back(Item::Dbl(std::nan("")));
        break;
      default:
        item->items().push_back(
            Item::Untyped(pool->Intern("s" + std::to_string(rng.Below(4)))));
        break;
    }
  }
  Table t;
  t.AddCol(InternCol("iter"), iter);
  t.AddCol(InternCol("item"), item);
  return t;
}

inline std::vector<SortCase> SortCases(StringPool* pool) {
  const ColId iter = InternCol("iter"), ord = InternCol("ord"),
              pos = InternCol("pos"), item = InternCol("item");
  std::vector<SortCase> cases;
  auto add = [&](std::string name, Table t, std::vector<ColId> part,
                 std::vector<ColId> order, std::vector<uint8_t> desc = {}) {
    cases.push_back({std::move(name), std::move(t), std::move(part),
                     std::move(order), std::move(desc)});
  };
  // One run, as a Step or an earlier ϱ delivers it.
  add("1-run", UnionRuns({3000}, 1), {iter}, {ord, pos});
  add("1-run-part-only", UnionRuns({3000}, 2), {iter}, {});
  add("1-run-order-only", UnionRuns({3000}, 3), {}, {iter, pos});
  // Sequence-constructor unions: 2 and 4 runs, starts on and off
  // 256-row chunk boundaries.
  add("2-runs", UnionRuns({1280, 1700}, 4), {iter}, {ord, pos});
  add("4-runs", UnionRuns({512, 768, 1024, 700}, 5), {iter}, {ord, pos});
  add("4-runs-ties", UnionRuns({512, 768, 1024, 700}, 6), {}, {iter});
  add("4-runs-part-ties", UnionRuns({300, 900, 256, 1100}, 7), {iter}, {});
  // Many runs of random lengths, from 1 row to a few hundred: short
  // runs make chunk sorts, long ones merge.
  {
    Rng rng(8);
    std::vector<size_t> lengths;
    size_t total = 0;
    while (total < 6000) {
      lengths.push_back(rng.Chance(0.7) ? rng.Range(1, 8) : rng.Range(40, 400));
      total += lengths.back();
    }
    add("many-runs", UnionRuns(lengths, 9), {iter}, {ord, pos});
    add("many-runs-ties", UnionRuns(lengths, 10), {}, {pos});
  }
  {
    // Ordered partitions longer than a chunk, starting on 256-row chunk
    // boundaries (512 rows) and off them (700 rows): a numbering that
    // continues across chunks.
    for (int64_t len : {512, 700}) {
      auto p = Column::MakeInt(), q = Column::MakeInt();
      for (int64_t i = 0; i < 3000; ++i) {
        p->ints().push_back(i / len);
        q->ints().push_back(i % len);
      }
      Table t;
      t.AddCol(iter, p);
      t.AddCol(pos, q);
      add("long-parts-" + std::to_string(len), t, {iter}, {pos});
    }
  }
  {
    // An order by: random keys, ties included.
    Rng rng(11);
    auto k = Column::MakeInt(), p = Column::MakeInt();
    for (size_t i = 0; i < 2500; ++i) {
      k->ints().push_back(rng.Range(0, 40));
      p->ints().push_back(rng.Range(0, 3));
    }
    Table t;
    t.AddCol(iter, p);
    t.AddCol(pos, k);
    add("random", t, {iter}, {pos});
    add("random-desc", t, {iter}, {pos}, {1});
  }
  {
    auto k = Column::MakeInt(), d = Column::MakeInt();
    for (size_t i = 0; i < 2000; ++i) {
      k->ints().push_back(7);
      d->ints().push_back(static_cast<int64_t>(2000 - i) / 3);
    }
    Table t;
    t.AddCol(iter, k);
    t.AddCol(pos, d);
    add("all-equal", t, {iter}, {});
    add("all-equal-order", t, {}, {iter});
    add("descending-desc", t, {iter}, {pos}, {1});
    add("descending-asc", t, {iter}, {pos});
  }
  for (size_t n : {0, 1}) {
    Table t;
    auto k = Column::MakeInt();
    for (size_t i = 0; i < n; ++i) k->ints().push_back(3);
    t.AddCol(iter, k);
    add(std::to_string(n) + "-rows", t, {iter}, {});
    add(std::to_string(n) + "-rows-no-keys", t, {}, {});
  }
  add("items-ordered", MixedItems(2600, 1, 12, pool), {iter}, {item});
  add("items-runs", MixedItems(2600, 40, 13, pool), {iter}, {item});
  add("items-one-part", MixedItems(2600, 2600, 14, pool), {}, {item});
  add("items-desc", MixedItems(2600, 300, 15, pool), {iter}, {item}, {1});
  {
    // DBL keys with NaNs among them.
    Rng rng(16);
    auto d = Column::MakeDbl();
    for (size_t i = 0; i < 2500; ++i) {
      d->dbls().push_back(rng.Chance(0.1) ? std::nan("")
                                          : static_cast<double>(
                                                rng.Range(-20, 20)) / 4);
    }
    Table t;
    t.AddCol(pos, d);
    add("dbl-nan", t, {}, {pos});
    add("dbl-nan-desc", t, {}, {pos}, {1});
  }
  return cases;
}

// Every case through SortPerm (by part then order keys) and Mark, on
// each pool and tuning, against the reference.
inline void ExpectSortsMatchReference(const std::vector<SortCase>& cases,
                                      const std::vector<ThreadPool*>& pools,
                                      const std::vector<KernelTuning>& tunings,
                                      const StringPool& pool) {
  for (const SortCase& c : cases) {
    std::vector<ColId> keys = c.part;
    keys.insert(keys.end(), c.order.begin(), c.order.end());
    std::vector<uint8_t> desc(c.part.size(), 0);
    desc.insert(desc.end(), c.desc.begin(), c.desc.end());
    const IdxVec want_perm = RefSortPerm(c.t, keys, pool, desc);
    const std::vector<int64_t> want_num =
        RefMark(c.t, c.part, c.order, pool, c.desc);
    for (ThreadPool* tp : pools) {
      for (const KernelTuning& kt : tunings) {
        SCOPED_TRACE(c.name + " threads=" +
                     std::to_string(tp ? tp->num_threads() : 0) +
                     " chunk=" + std::to_string(kt.sort_chunk_rows));
        auto perm = SortPerm(c.t, keys, pool, desc, tp, kt);
        ASSERT_TRUE(perm.ok());
        EXPECT_EQ(*perm, want_perm);
        auto num = Mark(c.t, c.part, c.order, pool, c.desc, tp, kt);
        ASSERT_TRUE(num.ok());
        EXPECT_EQ((*num)->ints(), want_num);
      }
    }
  }
}

}  // namespace pathfinder::bat

#endif  // PATHFINDER_TESTS_BAT_SORT_REFERENCE_H_
