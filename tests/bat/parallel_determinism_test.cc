// Byte-identity of every parallelized kernel operator across thread
// counts: the morsel decomposition and ordered merges must make the
// pool an invisible implementation detail. Inputs are sized past the
// parallel-engagement thresholds so the chunked code paths actually
// run, and include the order-sensitive cases the loop-lifting
// compilation scheme relies on (hash-join left-major pair order, sort
// and Mark stability, GroupAgg first-appearance group order).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "bat/kernel.h"
#include "bat/table.h"
#include "join_pairs.h"

namespace pathfinder::bat {
namespace {

/// Column id of `name` (tests name columns by string).
ColId C(std::string_view name) { return InternCol(name); }

constexpr size_t kRows = 30000;

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  std::vector<ThreadPool*> Pools() { return {&pool2_, &pool7_}; }

  ColumnPtr RandInts(size_t n, int64_t lo, int64_t hi, uint64_t seed) {
    auto c = Column::MakeInt(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) c->ints().push_back(rng.Range(lo, hi));
    return c;
  }

  ColumnPtr RandItems(size_t n, uint64_t seed) {
    auto c = Column::MakeItem(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Below(4)) {
        case 0:
          c->items().push_back(Item::Int(rng.Range(-50, 50)));
          break;
        case 1:
          c->items().push_back(Item::Dbl(rng.Range(-50, 50) * 0.5));
          break;
        case 2:
          c->items().push_back(Item::Str(
              pool_.Intern("s" + std::to_string(rng.Below(40)))));
          break;
        default:
          c->items().push_back(Item::Untyped(
              pool_.Intern(std::to_string(rng.Range(-50, 50)))));
          break;
      }
    }
    return c;
  }

  StringPool pool_;
  ThreadPool pool2_{2};
  ThreadPool pool7_{7};
};

TEST_F(ParallelDeterminismTest, FilterGather) {
  auto pred = Column::MakeBool(kRows);
  auto row = Column::MakeInt(kRows);  // each row's index
  Rng rng(11);
  for (size_t i = 0; i < kRows; ++i) {
    pred->bools().push_back(rng.Chance(0.3) ? 1 : 0);
    row->ints().push_back(static_cast<int64_t>(i));
  }
  Table t;
  t.AddCol(C("row"), row);
  // The filtered row column lists the selected rows' indices.
  const std::vector<int64_t> serial =
      FilterGather(t, *pred, nullptr).col(0)->ints();
  for (ThreadPool* tp : Pools()) {
    EXPECT_EQ(FilterGather(t, *pred, tp).col(0)->ints(), serial);
  }
}

TEST_F(ParallelDeterminismTest, GatherAllColumnTypes) {
  Rng rng(12);
  IdxVec idx(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    idx[i] = static_cast<RowIdx>(rng.Below(kRows));
  }
  Table t;
  t.AddCol(C("i"), RandInts(kRows, -1000, 1000, 13));
  t.AddCol(C("it"), RandItems(kRows, 14));
  auto d = Column::MakeDbl(kRows);
  auto s = Column::MakeStr(kRows);
  auto b = Column::MakeBool(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    d->dbls().push_back(rng.NextDouble());
    s->strs().push_back(static_cast<StrId>(rng.Below(100)));
    b->bools().push_back(rng.Chance(0.5) ? 1 : 0);
  }
  t.AddCol(C("d"), d);
  t.AddCol(C("s"), s);
  t.AddCol(C("b"), b);

  Table serial = GatherTable(t, idx, nullptr);
  for (ThreadPool* tp : Pools()) {
    Table par = GatherTable(t, idx, tp);
    ASSERT_EQ(par.num_cols(), serial.num_cols());
    EXPECT_EQ(par.col(0)->ints(), serial.col(0)->ints());
    EXPECT_EQ(par.col(1)->items(), serial.col(1)->items());
    EXPECT_EQ(par.col(2)->dbls(), serial.col(2)->dbls());
    EXPECT_EQ(par.col(3)->strs(), serial.col(3)->strs());
    EXPECT_EQ(par.col(4)->bools(), serial.col(4)->bools());
  }
}

TEST_F(ParallelDeterminismTest, HashJoinIntKeysLeftMajorOrder) {
  // Skewed duplicate keys: per-key right row lists have many entries,
  // so any build-order slip would reorder pairs. The keys are spread
  // (times a large odd stride) past the positional slot function's
  // 2 * rows + 64 span, so the hashed chains are the ones checked.
  ColumnPtr l = RandInts(20000, 0, 200, 21);
  ColumnPtr r = RandInts(15000, 0, 200, 22);
  for (ColumnPtr c : {l, r}) {
    for (int64_t& k : c->ints()) k *= 1000003;
  }
  IdxVec sl, sr;
  ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &sl, &sr, nullptr).ok());
  // Left-major order: left indices non-decreasing, right rows ascending
  // within one left row (= serial insertion order of the build).
  for (size_t k = 1; k < sl.size(); ++k) {
    ASSERT_GE(sl[k], sl[k - 1]);
    if (sl[k] == sl[k - 1]) {
      ASSERT_GT(sr[k], sr[k - 1]);
    }
  }
  for (ThreadPool* tp : Pools()) {
    IdxVec pl, pr;
    ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &pl, &pr, tp).ok());
    EXPECT_EQ(pl, sl);
    EXPECT_EQ(pr, sr);
  }
}

TEST_F(ParallelDeterminismTest, HashJoinStrAndItemKeys) {
  auto ls = Column::MakeStr(20000);
  auto rs = Column::MakeStr(9000);
  Rng rng(31);
  for (size_t i = 0; i < 20000; ++i) {
    ls->strs().push_back(static_cast<StrId>(rng.Below(300)));
  }
  for (size_t i = 0; i < 9000; ++i) {
    rs->strs().push_back(static_cast<StrId>(rng.Below(300)));
  }
  ColumnPtr li_c = RandItems(20000, 32);
  ColumnPtr ri_c = RandItems(9000, 33);
  for (auto [l, r] : {std::pair<Column*, Column*>{ls.get(), rs.get()},
                      {li_c.get(), ri_c.get()}}) {
    IdxVec sl, sr;
    ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &sl, &sr, nullptr).ok());
    EXPECT_GT(sl.size(), 0u);
    for (ThreadPool* tp : Pools()) {
      IdxVec pl, pr;
      ASSERT_TRUE(HashJoinFlat(*l, *r, pool_, &pl, &pr, tp).ok());
      EXPECT_EQ(pl, sl);
      EXPECT_EQ(pr, sr);
    }
  }
}

TEST_F(ParallelDeterminismTest, MappingJoinSharesTheProbeSide) {
  // The loop-lifted mapping join: probe iters 1..n in order against a
  // shuffled 1..n build side. Every probe row matches once, in order,
  // so at every pool size the joined table shares the probe side's
  // columns and gathers the build side's to the same bytes.
  std::vector<int64_t> iters(kRows);
  for (size_t i = 0; i < kRows; ++i) iters[i] = static_cast<int64_t>(i) + 1;
  auto probe = Column::MakeInt(kRows);
  probe->ints() = iters;
  Rng rng(45);
  for (size_t i = kRows; i > 1; --i) {
    std::swap(iters[i - 1], iters[rng.Below(i)]);
  }
  auto build = Column::MakeInt(kRows);
  build->ints() = iters;
  Table l, r;
  l.AddCol(C("iter"), probe);
  l.AddCol(C("item"), RandItems(kRows, 46));
  r.AddCol(C("iter1"), build);
  r.AddCol(C("pos"), RandInts(kRows, 0, 9, 47));
  auto join = [&](const Column& build_keys, ThreadPool* tp) {
    JoinPairChunks pc;
    EXPECT_TRUE(
        HashJoinPairsChunked(*probe, build_keys, pool_, &pc, tp).ok());
    return GatherPairs(l, r, pc, tp);
  };
  Table serial = join(*build, nullptr);
  ASSERT_EQ(serial.rows(), kRows);
  EXPECT_EQ(serial.col(2)->ints(), probe->ints());
  for (ThreadPool* tp : Pools()) {
    Table par = join(*build, tp);
    EXPECT_EQ(par.col(0), l.col(0));
    EXPECT_EQ(par.col(1), l.col(1));
    EXPECT_EQ(par.col(2)->ints(), serial.col(2)->ints());
    EXPECT_EQ(par.col(3)->ints(), serial.col(3)->ints());
  }
  // Build row 0 takes row 1's key: that key's probe row matches twice
  // and row 0's old key's probe row not at all. The pair count is still
  // n, but the probe side is no longer 0..n-1, so it is gathered.
  Column twice = *build;
  twice.ints()[0] = twice.ints()[1];
  Table dup = join(twice, nullptr);
  ASSERT_EQ(dup.rows(), kRows);
  EXPECT_NE(dup.col(0), l.col(0));
  for (ThreadPool* tp : Pools()) {
    Table par = join(twice, tp);
    EXPECT_NE(par.col(0), l.col(0));
    EXPECT_EQ(par.col(0)->ints(), dup.col(0)->ints());
    EXPECT_EQ(par.col(1)->items(), dup.col(1)->items());
    EXPECT_EQ(par.col(3)->ints(), dup.col(3)->ints());
  }
}

TEST_F(ParallelDeterminismTest, ThetaJoinNumericAndItemFallback) {
  ColumnPtr l = RandInts(2000, 0, 5000, 41);
  ColumnPtr r = RandInts(1500, 0, 5000, 42);
  for (CmpOp op : {CmpOp::kLt, CmpOp::kGe, CmpOp::kNe}) {
    IdxVec sl, sr;
    ASSERT_TRUE(
        ThetaJoinFlat(*l, *r, op, pool_, &sl, &sr, nullptr).ok());
    for (ThreadPool* tp : Pools()) {
      IdxVec pl, pr;
      ASSERT_TRUE(ThetaJoinFlat(*l, *r, op, pool_, &pl, &pr, tp).ok());
      EXPECT_EQ(pl, sl);
      EXPECT_EQ(pr, sr);
    }
  }
  // Non-numeric item keys take the generic value-comparison fallback.
  auto mkstrs = [&](size_t n, uint64_t seed) {
    auto c = Column::MakeItem(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      c->items().push_back(
          Item::Str(pool_.Intern("k" + std::to_string(rng.Below(60)))));
    }
    return c;
  };
  ColumnPtr la = mkstrs(1500, 43);
  ColumnPtr ra = mkstrs(300, 44);
  IdxVec sl, sr;
  ASSERT_TRUE(
      ThetaJoinFlat(*la, *ra, CmpOp::kLt, pool_, &sl, &sr, nullptr).ok());
  EXPECT_GT(sl.size(), 0u);
  for (ThreadPool* tp : Pools()) {
    IdxVec pl, pr;
    ASSERT_TRUE(
        ThetaJoinFlat(*la, *ra, CmpOp::kLt, pool_, &pl, &pr, tp).ok());
    EXPECT_EQ(pl, sl);
    EXPECT_EQ(pr, sr);
  }
}

TEST_F(ParallelDeterminismTest, SortPermStability) {
  // Few distinct keys => long runs of ties; the parallel merge must
  // reproduce the serial stable permutation, not just *a* sorted one.
  Table t;
  t.AddCol(C("k"), RandInts(kRows, 0, 20, 51));
  t.AddCol(C("k2"), RandItems(kRows, 52));
  for (auto keys : std::vector<std::vector<ColId>>{
           InternCols({"k"}), InternCols({"k", "k2"})}) {
    auto serial = SortPerm(t, keys, pool_, {}, nullptr);
    ASSERT_TRUE(serial.ok());
    for (ThreadPool* tp : Pools()) {
      auto par = SortPerm(t, keys, pool_, {}, tp);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(*par, *serial);
    }
  }
  // Descending keys too (exercises the desc flip through the merges).
  auto serial = SortPerm(t, InternCols({"k"}), pool_, {1}, nullptr);
  ASSERT_TRUE(serial.ok());
  for (ThreadPool* tp : Pools()) {
    auto par = SortPerm(t, InternCols({"k"}), pool_, {1}, tp);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(*par, *serial);
  }
}

TEST_F(ParallelDeterminismTest, MarkStability) {
  Table t;
  t.AddCol(C("p"), RandInts(kRows, 0, 15, 61));
  t.AddCol(C("o"), RandInts(kRows, 0, 8, 62));
  auto serial =
      Mark(t, InternCols({"p"}), InternCols({"o"}), pool_, {}, nullptr);
  ASSERT_TRUE(serial.ok());
  for (ThreadPool* tp : Pools()) {
    auto par = Mark(t, InternCols({"p"}), InternCols({"o"}), pool_, {}, tp);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ((*par)->ints(), (*serial)->ints());
  }
}

TEST_F(ParallelDeterminismTest, GroupAggAllKindsBitExact) {
  // Above the size threshold the morsel-wise partial aggregation runs
  // at EVERY thread count (including serial), so double sums associate
  // identically — compare Items by representation, not by value.
  Table t;
  t.AddCol(C("g"), RandInts(20000, 0, 99, 71));
  auto vals = Column::MakeItem(20000);
  Rng rng(72);
  for (size_t i = 0; i < 20000; ++i) {
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
      // First-appearance group order and bit-exact aggregate values.
      EXPECT_EQ(par->col(0)->ints(), serial->col(0)->ints());
      EXPECT_EQ(par->col(1)->items(), serial->col(1)->items());
    }
  }
}

}  // namespace
}  // namespace pathfinder::bat
