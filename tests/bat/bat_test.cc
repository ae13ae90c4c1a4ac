#include <gtest/gtest.h>

#include "bat/item_ops.h"
#include "bat/kernel.h"
#include "bat/table.h"
#include "join_pairs.h"

namespace pathfinder::bat {
namespace {

/// Column id of `name` (tests name columns by string).
ColId C(std::string_view name) { return InternCol(name); }

ColumnPtr IntCol(std::vector<int64_t> v) {
  auto c = Column::MakeInt();
  c->ints() = std::move(v);
  return c;
}

ColumnPtr ItemCol(std::vector<Item> v) {
  auto c = Column::MakeItem();
  c->items() = std::move(v);
  return c;
}

ColumnPtr BoolCol(std::vector<uint8_t> v) {
  auto c = Column::MakeBool();
  c->bools() = std::move(v);
  return c;
}

// --- Item ------------------------------------------------------------

TEST(ItemTest, PackUnpackRoundTrip) {
  EXPECT_EQ(Item::Int(-17).AsInt(), -17);
  EXPECT_EQ(Item::Dbl(2.5).AsDbl(), 2.5);
  EXPECT_EQ(Item::Str(9).AsStr(), 9u);
  EXPECT_TRUE(Item::Bool(true).AsBool());
  EXPECT_FALSE(Item::Bool(false).AsBool());
  Item n = Item::Node(3, 77);
  EXPECT_EQ(n.NodeFrag(), 3u);
  EXPECT_EQ(n.NodePre(), 77u);
  EXPECT_TRUE(n.IsNode());
  EXPECT_TRUE(Item::Attr(1, 2).IsNode());
  EXPECT_FALSE(Item::Int(1).IsNode());
}

TEST(ItemTest, DocumentOrderViaRaw) {
  // (frag, pre) ordering == raw ordering.
  EXPECT_LT(Item::Node(0, 5).raw, Item::Node(0, 6).raw);
  EXPECT_LT(Item::Node(0, 99999).raw, Item::Node(1, 0).raw);
}

TEST(ItemTest, RepresentationEquality) {
  EXPECT_EQ(Item::Int(5), Item::Int(5));
  EXPECT_FALSE(Item::Int(5) == Item::Dbl(5.0));  // representation!
  EXPECT_FALSE(Item::Node(0, 1) == Item::Attr(0, 1));
}

// --- item_ops ----------------------------------------------------------

class ItemOpsTest : public ::testing::Test {
 protected:
  StringPool pool_;
  Item S(const char* s) { return Item::Str(pool_.Intern(s)); }
  Item U(const char* s) { return Item::Untyped(pool_.Intern(s)); }
};

TEST_F(ItemOpsTest, ToDouble) {
  EXPECT_EQ(*ItemToDouble(Item::Int(4), pool_), 4.0);
  EXPECT_EQ(*ItemToDouble(Item::Dbl(2.5), pool_), 2.5);
  EXPECT_EQ(*ItemToDouble(U(" 42.5 "), pool_), 42.5);
  EXPECT_FALSE(ItemToDouble(U("abc"), pool_).ok());
  EXPECT_FALSE(ItemToDouble(Item::Node(0, 0), pool_).ok());
}

TEST_F(ItemOpsTest, ToString) {
  EXPECT_EQ(pool_.Get(*ItemToString(Item::Int(-3), &pool_)), "-3");
  EXPECT_EQ(pool_.Get(*ItemToString(Item::Dbl(2.0), &pool_)), "2");
  EXPECT_EQ(pool_.Get(*ItemToString(Item::Dbl(2.5), &pool_)), "2.5");
  EXPECT_EQ(pool_.Get(*ItemToString(Item::Bool(true), &pool_)), "true");
  EXPECT_EQ(pool_.Get(*ItemToString(S("x"), &pool_)), "x");
}

TEST_F(ItemOpsTest, ToBool) {
  EXPECT_TRUE(*ItemToBool(Item::Int(1), pool_));
  EXPECT_FALSE(*ItemToBool(Item::Int(0), pool_));
  EXPECT_FALSE(*ItemToBool(S(""), pool_));
  EXPECT_TRUE(*ItemToBool(S("x"), pool_));
  EXPECT_TRUE(*ItemToBool(Item::Node(0, 0), pool_));  // nodes truthy
}

TEST_F(ItemOpsTest, CompareNumericPromotion) {
  EXPECT_EQ(*ItemCompareValue(Item::Int(2), Item::Dbl(2.0), pool_), 0);
  EXPECT_LT(*ItemCompareValue(Item::Int(2), Item::Dbl(2.5), pool_), 0);
  EXPECT_EQ(*ItemCompareValue(U("7"), Item::Int(7), pool_), 0);
}

TEST_F(ItemOpsTest, CompareStrings) {
  EXPECT_LT(*ItemCompareValue(S("abc"), S("abd"), pool_), 0);
  EXPECT_EQ(*ItemCompareValue(S("abc"), U("abc"), pool_), 0);
}

TEST_F(ItemOpsTest, NumericLookingStringsCompareNumerically) {
  // Documented deviation: both-parseable string-likes compare as
  // numbers, so "10" > "9".
  EXPECT_GT(*ItemCompareValue(U("10"), U("9"), pool_), 0);
  EXPECT_EQ(*ItemCompareValue(S("2.0"), U("2"), pool_), 0);
  // Non-numeric strings stay lexicographic: "10x" < "9x".
  EXPECT_LT(*ItemCompareValue(S("10x"), S("9x"), pool_), 0);
}

TEST_F(ItemOpsTest, CompareNodesIsTypeError) {
  EXPECT_FALSE(ItemCompareValue(Item::Node(0, 1), S("x"), pool_).ok());
}

TEST_F(ItemOpsTest, ItemOrderRanksKindClasses) {
  // bool < number < string < node
  EXPECT_LT(ItemOrder(Item::Bool(true), Item::Int(-100), pool_), 0);
  EXPECT_LT(ItemOrder(Item::Int(999), S("a"), pool_), 0);
  EXPECT_LT(ItemOrder(S("zzz"), Item::Node(0, 0), pool_), 0);
  EXPECT_EQ(ItemOrder(Item::Int(3), Item::Dbl(3.0), pool_), 0);
}

// --- kernel ------------------------------------------------------------

class KernelTest : public ::testing::Test {
 protected:
  StringPool pool_;
};

TEST_F(KernelTest, FilterAndGather) {
  Table t;
  t.AddCol(C("a"), IntCol({10, 20, 30, 40}));
  t.AddCol(C("p"), BoolCol({1, 0, 1, 0}));
  Table f = FilterGather(t, *t.col(1));
  EXPECT_EQ(f.rows(), 2u);
  EXPECT_EQ(f.col(0)->ints(), (std::vector<int64_t>{10, 30}));
  // The selected rows are exactly rows 0 and 2, gathered.
  Table g = GatherTable(t, IdxVec{0, 2});
  EXPECT_EQ(f.col(0)->ints(), g.col(0)->ints());
  EXPECT_EQ(f.col(1)->bools(), g.col(1)->bools());
}

TEST_F(KernelTest, HashJoinPreservesLeftMajorOrder) {
  IdxVec li, ri;
  ASSERT_TRUE(HashJoinFlat(*IntCol({1, 2, 1}), *IntCol({1, 3, 1}),
                              pool_, &li, &ri)
                  .ok());
  // left row 0 matches right rows 0,2; left row 2 matches 0,2.
  EXPECT_EQ(li, (IdxVec{0, 0, 2, 2}));
  EXPECT_EQ(ri, (IdxVec{0, 2, 0, 2}));
}

TEST_F(KernelTest, HashJoinItemsCanonicalizesNumbers) {
  IdxVec li, ri;
  Item u42 = Item::Untyped(pool_.Intern("42"));
  ASSERT_TRUE(HashJoinFlat(*ItemCol({Item::Int(42)}), *ItemCol({u42}),
                              pool_, &li, &ri)
                  .ok());
  EXPECT_EQ(li.size(), 1u);
}

TEST_F(KernelTest, HashJoinItemsStrings) {
  IdxVec li, ri;
  Item a = Item::Str(pool_.Intern("person0"));
  Item b = Item::Untyped(pool_.Intern("person0"));
  Item c = Item::Untyped(pool_.Intern("person1"));
  ASSERT_TRUE(
      HashJoinFlat(*ItemCol({a}), *ItemCol({c, b}), pool_, &li, &ri)
          .ok());
  EXPECT_EQ(li, (IdxVec{0}));
  EXPECT_EQ(ri, (IdxVec{1}));
}

TEST_F(KernelTest, ThetaJoinNumeric) {
  IdxVec li, ri;
  ASSERT_TRUE(ThetaJoinFlat(*ItemCol({Item::Int(5), Item::Int(1)}),
                               *ItemCol({Item::Dbl(3.0)}), CmpOp::kGt,
                               pool_, &li, &ri)
                  .ok());
  EXPECT_EQ(li, (IdxVec{0}));
}

TEST_F(KernelTest, ThetaJoinStringFallback) {
  IdxVec li, ri;
  Item a = Item::Str(pool_.Intern("abc"));
  Item b = Item::Str(pool_.Intern("abd"));
  ASSERT_TRUE(ThetaJoinFlat(*ItemCol({a}), *ItemCol({b}), CmpOp::kLt,
                               pool_, &li, &ri)
                  .ok());
  EXPECT_EQ(li.size(), 1u);
}

TEST_F(KernelTest, HashJoinDenseKeysArePositional) {
  // Build keys 3..6 (duplicated 4, gap at 5) span 4 values: slot =
  // key - 3. Probe keys outside the span, 2 and 7, and INT64_MIN miss.
  IdxVec li, ri;
  ASSERT_TRUE(HashJoinFlat(*IntCol({4, 2, 6, 7, 3, INT64_MIN}),
                           *IntCol({6, 4, 3, 4}), pool_, &li, &ri)
                  .ok());
  EXPECT_EQ(li, (IdxVec{0, 0, 2, 4}));
  EXPECT_EQ(ri, (IdxVec{1, 3, 0, 2}));
}

// A table of one INT column, `name`.
Table OneCol(std::string_view name, std::vector<int64_t> v) {
  Table t;
  t.AddCol(C(name), IntCol(std::move(v)));
  return t;
}

TEST_F(KernelTest, GatherPairsSharesAnIdentitySide) {
  Table l = OneCol("a", {10, 20, 30});
  Table r = OneCol("b", {7, 8, 9});
  // Left indices 0..2 across two chunks (the 1:1 mapping join): the
  // left column is handed through, the permuted right one is gathered.
  JoinPairChunks pc;
  pc.li = {{0, 1}, {2}};
  pc.ri = {{2, 0}, {1}};
  Table t = GatherPairs(l, r, pc);
  EXPECT_EQ(t.col(0), l.col(0));
  EXPECT_NE(t.col(1), r.col(0));
  EXPECT_EQ(t.col(1)->ints(), (std::vector<int64_t>{9, 7, 8}));
  // The mirror image: the right side is the identity.
  std::swap(pc.li, pc.ri);
  t = GatherPairs(l, r, pc);
  EXPECT_NE(t.col(0), l.col(0));
  EXPECT_EQ(t.col(0)->ints(), (std::vector<int64_t>{30, 10, 20}));
  EXPECT_EQ(t.col(1), r.col(0));
}

TEST_F(KernelTest, GatherPairsCopiesUnmatchedAndRepeatedRows) {
  Table l = OneCol("a", {10, 20, 30});
  Table r = OneCol("b", {7, 8, 9});
  struct Case {
    std::vector<IdxVec> idx;
    std::vector<int64_t> l_out, r_out;
  };
  const std::vector<Case> cases = {
      {{{0, 2}}, {10, 30}, {7, 9}},                  // row 1 unmatched
      {{{0, 1}, {1, 2}}, {10, 20, 20, 30}, {7, 8, 8, 9}},  // row 1 twice
      {{{0, 1}, {0}}, {10, 20, 10}, {7, 8, 7}},      // a restart, 3 pairs
  };
  for (const Case& c : cases) {
    JoinPairChunks pc;
    pc.li = c.idx;
    pc.ri = c.idx;
    Table t = GatherPairs(l, r, pc);
    EXPECT_NE(t.col(0), l.col(0));
    EXPECT_NE(t.col(1), r.col(0));
    EXPECT_EQ(t.col(0)->ints(), c.l_out);
    EXPECT_EQ(t.col(1)->ints(), c.r_out);
  }
}

TEST_F(KernelTest, SortPermStableAndOrdered) {
  Table t;
  t.AddCol(C("k"), IntCol({3, 1, 3, 2}));
  t.AddCol(C("v"), IntCol({0, 1, 2, 3}));
  auto perm = SortPerm(t, InternCols({"k"}), pool_);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (IdxVec{1, 3, 0, 2}));  // stable: row 0 before row 2
}

TEST_F(KernelTest, SortPermDescending) {
  Table t;
  t.AddCol(C("k"), IntCol({1, 3, 2}));
  auto perm = SortPerm(t, InternCols({"k"}), pool_, {1});
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (IdxVec{1, 2, 0}));
}

TEST_F(KernelTest, SortPermAlreadySortedFastPathIsCorrect) {
  Table t;
  t.AddCol(C("k"), IntCol({1, 1, 2, 5}));
  auto perm = SortPerm(t, InternCols({"k"}), pool_);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (IdxVec{0, 1, 2, 3}));
}

TEST_F(KernelTest, DistinctKeepsFirstOccurrence) {
  Table t;
  t.AddCol(C("k"), IntCol({1, 2, 1, 3, 2}));
  auto idx = DistinctIndices(t, InternCols({"k"}));
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (IdxVec{0, 1, 3}));
}

TEST_F(KernelTest, DistinctOnAllColumns) {
  Table t;
  t.AddCol(C("a"), IntCol({1, 1, 1}));
  t.AddCol(C("b"), IntCol({1, 2, 1}));
  auto idx = DistinctIndices(t, {});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (IdxVec{0, 1}));
}

TEST_F(KernelTest, MarkGlobalNumbering) {
  Table t;
  t.AddCol(C("k"), IntCol({5, 5, 7}));
  auto col = Mark(t, {}, {}, pool_);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->ints(), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(KernelTest, MarkPartitionedNumbering) {
  Table t;
  t.AddCol(C("part"), IntCol({1, 2, 1, 2, 1}));
  auto col = Mark(t, InternCols({"part"}), {}, pool_);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->ints(), (std::vector<int64_t>{1, 1, 2, 2, 3}));
}

TEST_F(KernelTest, MarkOrderedWithinPartition) {
  Table t;
  t.AddCol(C("part"), IntCol({1, 1, 1}));
  t.AddCol(C("key"), IntCol({30, 10, 20}));
  auto col = Mark(t, InternCols({"part"}), InternCols({"key"}), pool_);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->ints(), (std::vector<int64_t>{3, 1, 2}));
}

TEST_F(KernelTest, MarkDescendingOrder) {
  Table t;
  t.AddCol(C("part"), IntCol({1, 1, 1}));
  t.AddCol(C("key"), IntCol({30, 10, 20}));
  auto col = Mark(t, InternCols({"part"}), InternCols({"key"}), pool_, {1});
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->ints(), (std::vector<int64_t>{1, 3, 2}));
}

TEST_F(KernelTest, DifferenceAntiJoin) {
  Table a, b;
  a.AddCol(C("k"), IntCol({1, 2, 3, 4}));
  b.AddCol(C("k"), IntCol({2, 4, 9}));
  auto idx = DifferenceIndices(a, b, InternCols({"k"}));
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (IdxVec{0, 2}));
}

TEST_F(KernelTest, UnionAllMatchesByName) {
  Table a, b;
  a.AddCol(C("x"), IntCol({1}));
  a.AddCol(C("y"), IntCol({2}));
  b.AddCol(C("y"), IntCol({4}));  // different order
  b.AddCol(C("x"), IntCol({3}));
  auto u = UnionAll(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->GetCol(C("x")).value()->ints(), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(u->GetCol(C("y")).value()->ints(), (std::vector<int64_t>{2, 4}));
}

TEST_F(KernelTest, UnionAllRejectsMissingColumn) {
  Table a, b;
  a.AddCol(C("x"), IntCol({1}));
  b.AddCol(C("z"), IntCol({2}));
  EXPECT_FALSE(UnionAll(a, b).ok());
}

TEST_F(KernelTest, GroupAggCount) {
  Table t;
  t.AddCol(C("g"), IntCol({1, 2, 1, 1}));
  auto r =
      GroupAgg(t, C("g"), kNoCol, AggKind::kCount, pool_, C("g"), C("n"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetCol(C("g")).value()->ints(), (std::vector<int64_t>{1, 2}));
  auto items = r->GetCol(C("n")).value()->items();
  EXPECT_EQ(items[0].AsInt(), 3);
  EXPECT_EQ(items[1].AsInt(), 1);
}

TEST_F(KernelTest, GroupAggSumStaysIntegerWhenAllInt) {
  Table t;
  t.AddCol(C("g"), IntCol({1, 1}));
  t.AddCol(C("v"), ItemCol({Item::Int(2), Item::Int(3)}));
  auto r = GroupAgg(t, C("g"), C("v"), AggKind::kSum, pool_, C("g"), C("s"));
  ASSERT_TRUE(r.ok());
  Item s = r->GetCol(C("s")).value()->items()[0];
  EXPECT_EQ(s.kind, ItemKind::kInt);
  EXPECT_EQ(s.AsInt(), 5);
}

TEST_F(KernelTest, GroupAggSumPromotesOnDouble) {
  Table t;
  t.AddCol(C("g"), IntCol({1, 1}));
  t.AddCol(C("v"), ItemCol({Item::Int(2), Item::Dbl(0.5)}));
  auto r = GroupAgg(t, C("g"), C("v"), AggKind::kSum, pool_, C("g"), C("s"));
  ASSERT_TRUE(r.ok());
  Item s = r->GetCol(C("s")).value()->items()[0];
  EXPECT_EQ(s.kind, ItemKind::kDbl);
  EXPECT_EQ(s.AsDbl(), 2.5);
}

TEST_F(KernelTest, GroupAggMaxMinAvg) {
  Table t;
  t.AddCol(C("g"), IntCol({7, 7, 7}));
  t.AddCol(C("v"),
           ItemCol({Item::Int(3), Item::Int(9), Item::Int(6)}));
  auto mx = GroupAgg(t, C("g"), C("v"), AggKind::kMax, pool_, C("g"), C("m"));
  EXPECT_EQ(mx->GetCol(C("m")).value()->items()[0].AsInt(), 9);
  auto mn = GroupAgg(t, C("g"), C("v"), AggKind::kMin, pool_, C("g"), C("m"));
  EXPECT_EQ(mn->GetCol(C("m")).value()->items()[0].AsInt(), 3);
  auto av = GroupAgg(t, C("g"), C("v"), AggKind::kAvg, pool_, C("g"), C("m"));
  EXPECT_EQ(av->GetCol(C("m")).value()->items()[0].AsDbl(), 6.0);
}

TEST_F(KernelTest, GroupAggStringsViaUntypedPromotion) {
  Table t;
  t.AddCol(C("g"), IntCol({1}));
  t.AddCol(C("v"), ItemCol({Item::Untyped(pool_.Intern("2.5"))}));
  auto r = GroupAgg(t, C("g"), C("v"), AggKind::kSum, pool_, C("g"), C("s"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetCol(C("s")).value()->items()[0].AsDbl(), 2.5);
}

// Parameterized sweep: Mark is dense 1..n per partition for any mix.
class MarkDensityTest : public ::testing::TestWithParam<int> {};

TEST_P(MarkDensityTest, DenseRanks) {
  StringPool pool;
  int n = GetParam();
  Table t;
  std::vector<int64_t> parts;
  for (int i = 0; i < n; ++i) parts.push_back(i % 3);
  t.AddCol(C("p"), IntCol(parts));
  auto col = Mark(t, InternCols({"p"}), {}, pool);
  ASSERT_TRUE(col.ok());
  std::map<int64_t, std::vector<int64_t>> per_part;
  for (int i = 0; i < n; ++i) {
    per_part[parts[static_cast<size_t>(i)]].push_back(
        (*col)->ints()[static_cast<size_t>(i)]);
  }
  for (auto& [p, ranks] : per_part) {
    std::sort(ranks.begin(), ranks.end());
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(ranks[i], static_cast<int64_t>(i + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MarkDensityTest,
                         ::testing::Values(0, 1, 2, 10, 100, 1000));

}  // namespace
}  // namespace pathfinder::bat
