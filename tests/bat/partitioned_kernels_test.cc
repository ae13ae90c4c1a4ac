// Byte-identity and correctness suite for the morsel-parallel kernels:
// the chained hash join, the run-merging row sort and GroupAgg's
// chunk-order combine of its morsel partials — every (thread count ×
// tuning) combination has to produce the serial reference bytes,
// including the awkward inputs: empty sides, all-duplicate keys (one
// chain holds every build row) and Zipf skew (one key or group holds
// almost everything). The int-key join is additionally anchored
// against a naive nested-loop reference, SortPerm and Mark against
// std::stable_sort (sort_reference.h), and GroupAgg against a
// test-local fold in its documented association, so the serial path
// itself is checked against first principles, not just against
// yesterday's serial path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bat/kernel.h"
#include "bat/table.h"
#include "join_pairs.h"
#include "sort_reference.h"

namespace pathfinder::bat {
namespace {

/// Column id of `name` (tests name columns by string).
ColId C(std::string_view name) { return InternCol(name); }

class PartitionedKernelsTest : public ::testing::Test {
 protected:
  // 1/2/4/7 worker threads; nullptr (the serial inline path) is the
  // reference every pool is compared against.
  std::vector<ThreadPool*> Pools() {
    return {&pool1_, &pool2_, &pool4_, &pool7_};
  }

  // Tunings swept on top of the thread counts. All must be
  // result-neutral: morsel_rows=64 maximizes chunk-merge traffic,
  // sort_chunk_rows=256 maximizes merge levels.
  std::vector<KernelTuning> Tunings() {
    std::vector<KernelTuning> ts(3);
    ts[1].morsel_rows = 64;
    ts[2].morsel_rows = 256;
    ts[2].sort_chunk_rows = 256;
    return ts;
  }

  ColumnPtr IntCol(const std::vector<int64_t>& v) {
    auto c = Column::MakeInt(v.size());
    for (int64_t x : v) c->ints().push_back(x);
    return c;
  }

  ColumnPtr RandInts(size_t n, int64_t lo, int64_t hi, uint64_t seed) {
    auto c = Column::MakeInt(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) c->ints().push_back(rng.Range(lo, hi));
    return c;
  }

  // Multiplies every key by a large odd stride: duplicates and skew
  // stay, but the keys span far more than 2 * rows + 64 values, so a
  // build side of them takes the hashed slot function instead of the
  // positional one.
  static ColumnPtr Spread(ColumnPtr c) {
    for (int64_t& k : c->ints()) k *= 1000003;
    return c;
  }

  ColumnPtr ZipfInts(size_t n, uint64_t universe, double s, uint64_t seed) {
    auto c = Column::MakeInt(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      c->ints().push_back(static_cast<int64_t>(rng.Zipf(universe, s)));
    }
    return c;
  }

  ColumnPtr RandItems(size_t n, uint64_t seed) {
    auto c = Column::MakeItem(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Below(4)) {
        case 0:
          c->items().push_back(Item::Int(rng.Range(-40, 40)));
          break;
        case 1:
          c->items().push_back(Item::Dbl(rng.Range(-40, 40) * 0.5));
          break;
        case 2:
          c->items().push_back(
              Item::Str(pool_.Intern("s" + std::to_string(rng.Below(30)))));
          break;
        default:
          c->items().push_back(Item::Untyped(
              pool_.Intern(std::to_string(rng.Range(-40, 40)))));
          break;
      }
    }
    return c;
  }

  // First-principles reference: left-major nested loop over int keys.
  static void NaiveIntJoin(const Column& l, const Column& r, IdxVec* li,
                           IdxVec* ri) {
    for (size_t i = 0; i < l.ints().size(); ++i) {
      for (size_t j = 0; j < r.ints().size(); ++j) {
        if (l.ints()[i] == r.ints()[j]) {
          li->push_back(static_cast<RowIdx>(i));
          ri->push_back(static_cast<RowIdx>(j));
        }
      }
    }
  }

  void ExpectJoinMatchesSerial(const Column& l, const Column& r) {
    IdxVec sl, sr;
    ASSERT_TRUE(HashJoinFlat(l, r, pool_, &sl, &sr, nullptr).ok());
    for (ThreadPool* tp : Pools()) {
      for (const KernelTuning& kt : Tunings()) {
        IdxVec pl, pr;
        ASSERT_TRUE(HashJoinFlat(l, r, pool_, &pl, &pr, tp, kt).ok());
        EXPECT_EQ(pl, sl);
        EXPECT_EQ(pr, sr);
      }
    }
  }

  // The nested-loop pairs, from no pool and each pool size, under every
  // tuning (morsel_rows moves the probe's chunk boundaries).
  void ExpectJoinMatchesNaive(const Column& l, const Column& r) {
    IdxVec nl, nr;
    NaiveIntJoin(l, r, &nl, &nr);
    std::vector<ThreadPool*> pools = Pools();
    pools.insert(pools.begin(), nullptr);
    for (ThreadPool* tp : pools) {
      for (const KernelTuning& kt : Tunings()) {
        IdxVec pl, pr;
        ASSERT_TRUE(HashJoinFlat(l, r, pool_, &pl, &pr, tp, kt).ok());
        EXPECT_EQ(pl, nl) << "threads "
                          << (tp == nullptr ? 0 : tp->num_threads())
                          << " morsel " << kt.morsel_rows;
        EXPECT_EQ(pr, nr);
      }
    }
  }

  // 0..n-1 shifted by `base`, in an Rng-shuffled order.
  ColumnPtr ShuffledRange(size_t n, int64_t base, uint64_t seed) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = base + static_cast<int64_t>(i);
    Rng rng(seed);
    for (size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
    return IntCol(v);
  }

  // n keys drawn from `distinct` values spaced a million apart: far
  // too sparse for the positional path, so the hashed path runs.
  ColumnPtr SparseInts(size_t n, int64_t distinct, uint64_t seed) {
    auto c = Column::MakeInt(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      c->ints().push_back(rng.Range(0, distinct - 1) * 1000003);
    }
    return c;
  }

  StringPool pool_;
  ThreadPool pool1_{1};
  ThreadPool pool2_{2};
  ThreadPool pool4_{4};
  ThreadPool pool7_{7};
};

TEST_F(PartitionedKernelsTest, HashedJoinMatchesNaiveReference) {
  // Sparse keys on sides of several morsels each: one hashed table
  // chains every build row, and the nested loop checks its pairs
  // against first principles.
  ColumnPtr l = Spread(RandInts(9000, 0, 400, 11));
  ColumnPtr r = Spread(RandInts(5000, 0, 400, 12));
  IdxVec nl_, nr_;
  NaiveIntJoin(*l, *r, &nl_, &nr_);
  ASSERT_GT(nl_.size(), 0u);
  IdxVec sl, sr;
  ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &sl, &sr, nullptr).ok());
  EXPECT_EQ(sl, nl_);
  EXPECT_EQ(sr, nr_);
  ExpectJoinMatchesSerial(*l, *r);
}

TEST_F(PartitionedKernelsTest, HashedJoinEmptyInputs) {
  ColumnPtr big = RandInts(20000, 0, 100, 21);
  ColumnPtr empty = IntCol({});
  for (auto [l, r] : {std::pair<Column*, Column*>{big.get(), empty.get()},
                      {empty.get(), big.get()},
                      {empty.get(), empty.get()}}) {
    IdxVec sl, sr;
    ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &sl, &sr, nullptr).ok());
    EXPECT_TRUE(sl.empty());
    EXPECT_TRUE(sr.empty());
    ExpectJoinMatchesSerial(*l, *r);
  }
}

TEST_F(PartitionedKernelsTest, HashedJoinAllDuplicateKeys) {
  // Every build row but one far outlier (which keeps the keys' span
  // past the positional slot function) lands in ONE slot, ONE chain;
  // each probe hit replays the entire chain, whose order must be the
  // ascending build-row order: the nested loop's pairs, spelled out.
  // Sizes keep the pair count (n*m) sane while one side spans two
  // morsels.
  auto with_outlier = [this](size_t n) {
    std::vector<int64_t> keys(n, 7);
    keys.push_back(int64_t{7} << 40);
    return IntCol(keys);
  };
  {
    ColumnPtr l = IntCol(std::vector<int64_t>(8192, 7));
    ColumnPtr r = with_outlier(64);
    IdxVec sl, sr;
    ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &sl, &sr, nullptr).ok());
    ASSERT_EQ(sl.size(), 8192u * 64u);
    // Left-major, right ascending within each left row.
    for (size_t k = 0; k < sl.size(); ++k) {
      ASSERT_EQ(sl[k], k / 64);
      ASSERT_EQ(sr[k], k % 64);
    }
    ExpectJoinMatchesSerial(*l, *r);
  }
  {
    // Large build side: one 8192-row chain probed by 64 rows.
    ColumnPtr l = IntCol(std::vector<int64_t>(64, 7));
    ColumnPtr r = with_outlier(8192);
    IdxVec sl, sr;
    ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &sl, &sr, nullptr).ok());
    ASSERT_EQ(sl.size(), 64u * 8192u);
    for (size_t k = 0; k < sl.size(); ++k) {
      ASSERT_EQ(sl[k], k / 8192);
      ASSERT_EQ(sr[k], k % 8192);
    }
    ExpectJoinMatchesSerial(*l, *r);
  }
}

TEST_F(PartitionedKernelsTest, HashedJoinZipfSkewMatchesNaive) {
  // Zipf keys: the hottest key's chain dominates the table and its
  // probes dominate some morsels; the pairs must stay the nested loop's.
  ColumnPtr l = Spread(ZipfInts(9000, 2000, 1.1, 31));
  ColumnPtr r = Spread(ZipfInts(5000, 2000, 1.1, 32));
  ExpectJoinMatchesNaive(*l, *r);
}

TEST_F(PartitionedKernelsTest, HashedJoinStrAndItemKeys) {
  auto ls = Column::MakeStr(20000);
  auto rs = Column::MakeStr(9000);
  Rng rng(41);
  for (size_t i = 0; i < 20000; ++i) {
    ls->strs().push_back(static_cast<StrId>(rng.Below(250)));
  }
  for (size_t i = 0; i < 9000; ++i) {
    rs->strs().push_back(static_cast<StrId>(rng.Below(250)));
  }
  ExpectJoinMatchesSerial(*ls, *rs);
  ColumnPtr li = RandItems(20000, 42);
  ColumnPtr ri = RandItems(9000, 43);
  // Item keys canonicalize before hashing (ints join doubles, untyped
  // atomics their parsed value) — at every pool size and grain.
  IdxVec sl, sr;
  ASSERT_TRUE(HashJoinFlat(*li, *ri, pool_, &sl, &sr, nullptr).ok());
  EXPECT_GT(sl.size(), 0u);
  ExpectJoinMatchesSerial(*li, *ri);
}

// INT build keys spanning at most 2 * rows + 64 values take the
// positional slot function (slot = key - min). Probe keys below, inside
// and above the span, with unique, duplicated, gapped and negative
// build keys, must give the nested-loop pairs.
TEST_F(PartitionedKernelsTest, PositionalJoinDenseKeysMatchNaive) {
  {
    SCOPED_TRACE("unique: a shuffled 1..n, the mapping-join shape");
    ColumnPtr r = ShuffledRange(6000, 1, 51);
    ColumnPtr l = RandInts(9000, -3, 6003, 52);
    ExpectJoinMatchesNaive(*l, *r);
    ExpectJoinMatchesNaive(*ShuffledRange(6000, 1, 53), *r);
  }
  {
    SCOPED_TRACE("duplicated");
    ExpectJoinMatchesNaive(*RandInts(7000, -5, 1205, 54),
                           *RandInts(5000, 0, 1200, 55));
  }
  {
    SCOPED_TRACE("gapped: even keys only");
    ColumnPtr r = ShuffledRange(3000, 0, 56);
    for (int64_t& k : r->ints()) k *= 2;
    ExpectJoinMatchesNaive(*RandInts(5000, -2, 6001, 57), *r);
  }
  {
    SCOPED_TRACE("negative");
    ExpectJoinMatchesNaive(*RandInts(5000, -2100, 100, 58),
                           *RandInts(3000, -2000, -1, 59));
  }
  {
    SCOPED_TRACE("span 2n+63 (positional) and 2n+64 (hashed)");
    for (int64_t top : {2 * 500 + 63, 2 * 500 + 64}) {
      ColumnPtr r = RandInts(500, 1, top - 1, 60);
      r->ints()[0] = 0;
      r->ints()[499] = top;
      ExpectJoinMatchesNaive(*RandInts(800, -1, top + 1, 61), *r);
    }
  }
}

// A build column holding INT64_MIN and INT64_MAX spans every value: its
// span must not overflow (UBSan) and must send it to the hashed paths.
// Dense build keys next to either extreme stay positional, and probe
// keys at the opposite extreme must wrap to a miss.
TEST_F(PartitionedKernelsTest, JoinKeysAtInt64Extremes) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> probe = {kMax, 0,       kMin,     7,
                                      -1,   kMin + 1, kMax - 1, kMax};
  ExpectJoinMatchesNaive(*IntCol(probe),
                         *IntCol({kMin, kMax, 0, -1, kMax, 5, kMin}));
  ExpectJoinMatchesNaive(*IntCol(probe),
                         *IntCol({kMax - 2, kMax, kMax - 1, kMax}));
  ExpectJoinMatchesNaive(*IntCol(probe),
                         *IntCol({kMin + 1, kMin, kMin + 2, kMin}));
  // Sides of several morsels: the hashed path, extremes included.
  ColumnPtr r = SparseInts(6000, 3000, 62);
  ColumnPtr l = SparseInts(7000, 3000, 63);
  for (size_t i = 0; i < 40; ++i) {
    r->ints()[i * 150] = i % 2 ? kMax : kMin;
    l->ints()[i * 170] = i % 3 ? kMin : kMax;
  }
  ExpectJoinMatchesNaive(*l, *r);
}

TEST_F(PartitionedKernelsTest, JoinEmptyAndOneRowSides) {
  const std::vector<std::vector<int64_t>> sides = {
      {}, {5}, {int64_t{1} << 40}, {5, 9, 5}};
  for (const auto& l : sides) {
    for (const auto& r : sides) {
      ExpectJoinMatchesNaive(*IntCol(l), *IntCol(r));
    }
  }
  // One row against a side past the morsel threshold, dense and sparse.
  for (ColumnPtr big : {RandInts(5000, 0, 99, 64), SparseInts(5000, 99, 65)}) {
    for (const ColumnPtr& one : {IntCol({big->ints()[17]}), IntCol({-1})}) {
      ExpectJoinMatchesNaive(*one, *big);
      ExpectJoinMatchesNaive(*big, *one);
    }
  }
}

// Sides on either side of one morsel: one probe chunk or two, over the
// one hashed table for sparse keys and the positional path for dense
// ones.
TEST_F(PartitionedKernelsTest, JoinSidesAroundMorselThreshold) {
  const size_t m = KernelTuning().morsel_rows;
  for (size_t nl : {m - 1, m, m + 1}) {
    for (size_t nr : {m - 1, m + 1}) {
      SCOPED_TRACE(std::to_string(nl) + " x " + std::to_string(nr));
      ExpectJoinMatchesNaive(*SparseInts(nl, 1500, 66 + nl),
                             *SparseInts(nr, 1500, 67 + nr));
      ExpectJoinMatchesNaive(*RandInts(nl, 0, 1500, 68 + nl),
                             *RandInts(nr, 0, 1500, 69 + nr));
    }
  }
}

TEST_F(PartitionedKernelsTest, MergeSortMatchesSerialStableSort) {
  // Few distinct keys => long tie runs; the merge-path splits must
  // take ties from the lower run exactly like std::merge, or the
  // stable permutation breaks.
  Table t;
  t.AddCol(C("k"), RandInts(60000, 0, 25, 61));
  t.AddCol(C("k2"), RandItems(60000, 62));
  for (auto [keys, desc] :
       std::vector<std::pair<std::vector<ColId>,
                             std::vector<uint8_t>>>{
           {InternCols({"k"}), {}},
           {InternCols({"k", "k2"}), {}},
           {InternCols({"k"}), {1}},
           {InternCols({"k", "k2"}), {1, 0}}}) {
    auto serial = SortPerm(t, keys, pool_, desc, nullptr);
    ASSERT_TRUE(serial.ok());
    for (ThreadPool* tp : Pools()) {
      for (const KernelTuning& kt : Tunings()) {
        auto par = SortPerm(t, keys, pool_, desc, tp, kt);
        ASSERT_TRUE(par.ok());
        EXPECT_EQ(*par, *serial);
      }
    }
  }
}

TEST_F(PartitionedKernelsTest, MergeSortSkewAndPhases) {
  // Reverse-sorted input with heavy duplication: runs of 100 tied rows,
  // each starting below its predecessor, so every chunk holds several
  // runs and every merge moves every element.
  Table t;
  auto c = Column::MakeInt(50000);
  for (size_t i = 0; i < 50000; ++i) {
    c->ints().push_back(static_cast<int64_t>((50000 - i) / 100));
  }
  t.AddCol(C("k"), c);
  auto serial = SortPerm(t, InternCols({"k"}), pool_, {}, nullptr);
  ASSERT_TRUE(serial.ok());
  KernelTuning kt;
  kt.sort_chunk_rows = 256;  // many merge levels
  auto par = SortPerm(t, InternCols({"k"}), pool_, {}, &pool4_, kt);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(*par, *serial);
}

TEST_F(PartitionedKernelsTest, SharedSortMatchesStdStableSort) {
  // The one sort routine under a comparator of its caller's choosing,
  // against std::stable_sort: random keys with long tie runs (the tie
  // rule decides the permutation), all-equal, sorted and reverse
  // inputs, and presorted runs of 512 rows (every run start on a chunk
  // boundary at both grains) and of 700 rows (off them), at every pool
  // size and at the shortest and the default grain. 40,000 rows span
  // several chunks at both.
  constexpr size_t kN = 40000;
  Rng rng(101);
  std::vector<std::pair<const char*, std::vector<int64_t>>> inputs = {
      {"random", {}},  {"all-equal", {}}, {"sorted", {}},
      {"reverse", {}}, {"runs-512", {}},  {"runs-700", {}}};
  for (size_t i = 0; i < kN; ++i) {
    inputs[0].second.push_back(rng.Range(0, 30));
    inputs[1].second.push_back(5);
    inputs[2].second.push_back(static_cast<int64_t>(i / 7));
    inputs[3].second.push_back(static_cast<int64_t>((kN - i) / 100));
    inputs[4].second.push_back(static_cast<int64_t>(i % 512 / 3));
    inputs[5].second.push_back(static_cast<int64_t>(i % 700 / 3));
  }
  std::vector<KernelTuning> runs(2);
  runs[0].sort_chunk_rows = 256;
  for (const auto& [name, k] : inputs) {
    auto cmp = [&k = k](RowIdx a, RowIdx b) {
      return (k[a] > k[b]) - (k[a] < k[b]);
    };
    IdxVec want(kN);
    for (size_t i = 0; i < kN; ++i) want[i] = static_cast<RowIdx>(i);
    std::stable_sort(want.begin(), want.end(),
                     [&k = k](RowIdx a, RowIdx b) { return k[a] < k[b]; });
    std::vector<ThreadPool*> pools = Pools();
    pools.push_back(nullptr);
    for (ThreadPool* tp : pools) {
      for (const KernelTuning& kt : runs) {
        EXPECT_EQ(StableSortRows(kN, cmp, tp, kt), want)
            << name << " run=" << kt.sort_chunk_rows
            << " threads=" << (tp ? tp->num_threads() : 0);
      }
    }
  }
}

TEST_F(PartitionedKernelsTest, SortAndMarkMatchReference) {
  // SortPerm and Mark against std::stable_sort under the per-key type
  // switch they replaced, on the plan shapes and edge cases of
  // SortCases plus inputs past the default grain: one run numbered
  // across chunks, and two runs whose second starts on a chunk
  // boundary. Grains of 256 and 300 rows put the run starts at 256-row
  // multiples on and off chunk boundaries.
  std::vector<SortCase> cases = SortCases(&pool_);
  const ColId iter = C("iter"), ord = C("ord"), pos = C("pos");
  cases.push_back({"1-run-large", UnionRuns({20000}, 21), {iter}, {}, {}});
  cases.push_back(
      {"2-runs-large", UnionRuns({8192, 12000}, 22), {iter}, {ord, pos}, {}});
  std::vector<KernelTuning> tunings(3);
  tunings[0].sort_chunk_rows = 256;
  tunings[1].sort_chunk_rows = 300;
  ExpectSortsMatchReference(cases, {nullptr, &pool2_, &pool7_}, tunings,
                            pool_);
}

TEST_F(PartitionedKernelsTest, GroupAggCombineBitExact) {
  // Zipf groups: the hottest group holds nearly all rows and shows up
  // in every morsel partial. Doubles in the mix pin the FP
  // association: values must match by representation at every thread
  // count.
  Table t;
  t.AddCol(C("g"), ZipfInts(40000, 500, 1.2, 71));
  auto vals = Column::MakeItem(40000);
  Rng rng(72);
  for (size_t i = 0; i < 40000; ++i) {
    if (rng.Chance(0.5)) {
      vals->items().push_back(Item::Int(rng.Range(-100, 100)));
    } else {
      vals->items().push_back(Item::Dbl(rng.NextDouble() * 100.0));
    }
  }
  t.AddCol(C("v"), vals);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMax, AggKind::kMin}) {
    auto serial =
        GroupAgg(t, C("g"), C("v"), kind, pool_, C("g"), C("out"), nullptr);
    ASSERT_TRUE(serial.ok());
    for (ThreadPool* tp : Pools()) {
      auto par = GroupAgg(t, C("g"), C("v"), kind, pool_, C("g"), C("out"), tp);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(par->col(0)->ints(), serial->col(0)->ints());
      EXPECT_EQ(par->col(1)->items(), serial->col(1)->items());
    }
  }
}

TEST_F(PartitionedKernelsTest, GroupAggSingleGroupAndPhases) {
  // Every row in one group: every partial folds into the same one.
  Table t;
  t.AddCol(C("g"), IntCol(std::vector<int64_t>(30000, 42)));
  auto vals = Column::MakeItem(30000);
  Rng rng(81);
  for (size_t i = 0; i < 30000; ++i) {
    vals->items().push_back(Item::Dbl(rng.NextDouble()));
  }
  t.AddCol(C("v"), vals);
  auto serial = GroupAgg(t, C("g"), C("v"), AggKind::kSum, pool_, C("g"),
                         C("s"), nullptr);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->col(0)->ints().size(), 1u);
  for (ThreadPool* tp : Pools()) {
    auto par = GroupAgg(t, C("g"), C("v"), AggKind::kSum, pool_, C("g"),
                        C("s"), tp);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(par->col(0)->ints(), serial->col(0)->ints());
    EXPECT_EQ(par->col(1)->items(), serial->col(1)->items());
  }
}

// GroupAgg against a test-local fold in its documented association:
// below 8,192 rows one fold over the rows; from 8,192 rows on, one
// partial per 4,096-row chunk, the partials folded in chunk order.
// Groups come in first-appearance order, and max/min keep the first of
// tied items (Int(7) ties Dbl(7.0)). The doubles span twenty orders of
// magnitude, so a sum associated any other way differs in its bits.
TEST_F(PartitionedKernelsTest, GroupAggMatchesChunkedFoldReference) {
  struct Ref {
    int64_t count = 0;
    double dsum = 0;
    int64_t isum = 0;
    bool all_int = true;
    Item extreme{};
  };
  auto num = [](const Item& x) {
    return x.kind == ItemKind::kInt ? static_cast<double>(x.AsInt())
                                    : x.AsDbl();
  };
  // Groups in first-appearance order and their folds, over partials of
  // `grain` rows. The extreme is replaced only by a strictly greater
  // (smaller) value, so the first of tied items stays.
  auto reference = [&num](const std::vector<int64_t>& g,
                          const std::vector<Item>& v, size_t grain,
                          bool max) {
    auto beats = [&](const Item& x, const Item& y) {
      return max ? num(x) > num(y) : num(x) < num(y);
    };
    std::vector<int64_t> order;
    std::map<int64_t, Ref> total;
    for (size_t lo = 0; lo < g.size(); lo += grain) {
      std::vector<int64_t> chunk_order;
      std::map<int64_t, Ref> part;
      for (size_t r = lo; r < std::min(g.size(), lo + grain); ++r) {
        auto [it, fresh] = part.try_emplace(g[r]);
        Ref& a = it->second;
        if (fresh) {
          chunk_order.push_back(g[r]);
          a.extreme = v[r];
        }
        if (beats(v[r], a.extreme)) a.extreme = v[r];
        ++a.count;
        a.dsum += num(v[r]);
        if (v[r].kind == ItemKind::kInt) {
          a.isum += v[r].AsInt();
        } else {
          a.all_int = false;
        }
      }
      for (int64_t k : chunk_order) {
        const Ref& p = part[k];
        auto [it, fresh] = total.try_emplace(k, p);
        if (fresh) {
          order.push_back(k);
          continue;
        }
        Ref& a = it->second;
        if (beats(p.extreme, a.extreme)) a.extreme = p.extreme;
        a.count += p.count;
        a.dsum += p.dsum;
        a.isum += p.isum;
        a.all_int = a.all_int && p.all_int;
      }
    }
    return std::make_pair(order, total);
  };
  for (size_t n : {size_t{8191}, size_t{8192}, size_t{30001}}) {
    SCOPED_TRACE("rows " + std::to_string(n));
    Table t;
    ColumnPtr gc = ZipfInts(n, 300, 1.1, 301 + n);
    for (int64_t& k : gc->ints()) k = k * 7919 - 1000000;
    t.AddCol(C("g"), gc);
    auto vc = Column::MakeItem(n);
    Rng rng(302 + n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Below(4)) {
        case 0:
          vc->items().push_back(Item::Int(7));
          break;
        case 1:
          vc->items().push_back(Item::Dbl(7.0));
          break;
        case 2:
          vc->items().push_back(Item::Int(rng.Range(-1000, 1000)));
          break;
        default:
          vc->items().push_back(Item::Dbl(
              (rng.Chance(0.5) ? -1.0 : 1.0) * rng.NextDouble() *
              std::pow(10.0, static_cast<double>(rng.Range(-6, 14)))));
          break;
      }
    }
    t.AddCol(C("v"), vc);
    const auto& g = gc->ints();
    const auto& v = vc->items();
    const size_t grain = n < 8192 ? n : 4096;
    const auto [order, maxes] = reference(g, v, grain, true);
    const auto [order2, mins] = reference(g, v, grain, false);
    ASSERT_EQ(order, order2);
    std::vector<Item> count, sum, avg, mx, mn;
    for (int64_t k : order) {
      const Ref& a = maxes.at(k);
      count.push_back(Item::Int(a.count));
      sum.push_back(a.all_int ? Item::Int(a.isum) : Item::Dbl(a.dsum));
      avg.push_back(Item::Dbl(a.dsum / static_cast<double>(a.count)));
      mx.push_back(a.extreme);
      mn.push_back(mins.at(k).extreme);
    }
    if (n >= 8192) {
      // The reference is discriminating: folding all rows in one pass
      // gives other bits for some group's sum.
      const auto [o1, one_fold] = reference(g, v, n, true);
      bool differs = false;
      for (int64_t k : order) {
        differs = differs || one_fold.at(k).dsum != maxes.at(k).dsum;
      }
      EXPECT_TRUE(differs);
    }
    const std::pair<AggKind, const std::vector<Item>*> kinds[] = {
        {AggKind::kCount, &count}, {AggKind::kSum, &sum},
        {AggKind::kAvg, &avg},     {AggKind::kMax, &mx},
        {AggKind::kMin, &mn}};
    for (ThreadPool* tp : {static_cast<ThreadPool*>(nullptr), &pool2_,
                           &pool7_}) {
      for (const auto& [kind, want] : kinds) {
        auto r = GroupAgg(t, C("g"), C("v"), kind, pool_, C("g"), C("out"),
                          tp);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->col(0)->ints(), order);
        EXPECT_EQ(r->col(1)->items(), *want)
            << "kind " << static_cast<int>(kind) << " threads "
            << (tp == nullptr ? 0 : tp->num_threads());
      }
    }
  }
}

TEST_F(PartitionedKernelsTest, FilterBranchFreeScatter) {
  // All-false, all-true, sparse and alternating predicates through the
  // branch-free cursor loops, at a tiny morsel grain so chunk-boundary
  // handoff is exercised thousands of times.
  Rng rng(91);
  for (double density : {0.0, 1.0, 0.03, 0.5}) {
    auto pred = Column::MakeBool(30000);
    for (size_t i = 0; i < 30000; ++i) {
      pred->bools().push_back(density == 0.5 ? (i & 1) != 0
                                             : rng.Chance(density) ? 1 : 0);
    }
    // The filtered row column lists the selected rows' indices.
    std::vector<int64_t> ids(30000);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
    Table rows;
    rows.AddCol(C("row"), IntCol(ids));
    const std::vector<int64_t> serial =
        FilterGather(rows, *pred, nullptr).col(0)->ints();
    for (ThreadPool* tp : Pools()) {
      for (const KernelTuning& kt : Tunings()) {
        EXPECT_EQ(FilterGather(rows, *pred, tp, kt).col(0)->ints(), serial);
      }
    }
    // FilterGather scatters values with the same loop.
    Table t;
    t.AddCol(C("i"), RandInts(30000, -1000, 1000, 92));
    t.AddCol(C("it"), RandItems(30000, 93));
    Table sref = FilterGather(t, *pred, nullptr);
    for (ThreadPool* tp : Pools()) {
      KernelTuning kt;
      kt.morsel_rows = 64;
      Table par = FilterGather(t, *pred, tp, kt);
      ASSERT_EQ(par.num_cols(), sref.num_cols());
      EXPECT_EQ(par.col(0)->ints(), sref.col(0)->ints());
      EXPECT_EQ(par.col(1)->items(), sref.col(1)->items());
    }
  }
}

}  // namespace
}  // namespace pathfinder::bat
