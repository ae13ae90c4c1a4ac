// DistinctIndices / DifferenceIndices, one serial hash scan each,
// against references that spell out representation equality (doubles
// by bit pattern, items by kind+raw, cells of different column types
// never equal): a naive quadratic scan for the small and edge-case
// tables, and a std::set of key tuples for 50,000-row inputs with
// heavy duplicate skew, where most rows hit a stored key.

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "bat/kernel.h"
#include "bat/table.h"

namespace pathfinder::bat {
namespace {

/// Column id of `name` (tests name columns by string).
ColId C(std::string_view name) { return InternCol(name); }

// Representation equality of two cells, possibly across two columns of
// the same type — the equality DistinctIndices/DifferenceIndices key
// encodings implement.
bool CellEq(const Column& ca, size_t ra, const Column& cb, size_t rb) {
  if (ca.type() != cb.type()) return false;
  switch (ca.type()) {
    case ColType::kInt:
      return ca.ints()[ra] == cb.ints()[rb];
    case ColType::kDbl: {
      uint64_t x = 0, y = 0;
      std::memcpy(&x, &ca.dbls()[ra], sizeof(x));
      std::memcpy(&y, &cb.dbls()[rb], sizeof(y));
      return x == y;
    }
    case ColType::kStr:
      return ca.strs()[ra] == cb.strs()[rb];
    case ColType::kBool:
      return ca.bools()[ra] == cb.bools()[rb];
    case ColType::kItem:
      return ca.items()[ra].kind == cb.items()[rb].kind &&
             ca.items()[ra].raw == cb.items()[rb].raw;
  }
  return false;
}

bool RowEq(const std::vector<const Column*>& as, size_t ra,
           const std::vector<const Column*>& bs, size_t rb) {
  for (size_t c = 0; c < as.size(); ++c) {
    if (!CellEq(*as[c], ra, *bs[c], rb)) return false;
  }
  return true;
}

std::vector<const Column*> Cols(const Table& t,
                                const std::vector<ColId>& keys) {
  std::vector<const Column*> cols;
  if (keys.empty()) {
    for (size_t i = 0; i < t.num_cols(); ++i) cols.push_back(t.col(i).get());
    return cols;
  }
  for (const auto& k : keys) {
    cols.push_back(t.col(static_cast<size_t>(t.FindCol(k))).get());
  }
  return cols;
}

// One row's key tuple under representation equality: per cell, its
// column type (an item's kind) and its 64 payload bits.
using KeyTuple = std::vector<std::pair<int, uint64_t>>;

KeyTuple KeyOf(const std::vector<const Column*>& cols, size_t r) {
  KeyTuple k;
  for (const Column* c : cols) {
    switch (c->type()) {
      case ColType::kInt:
        k.emplace_back(0, static_cast<uint64_t>(c->ints()[r]));
        break;
      case ColType::kDbl:
        k.emplace_back(1, std::bit_cast<uint64_t>(c->dbls()[r]));
        break;
      case ColType::kStr:
        k.emplace_back(2, c->strs()[r]);
        break;
      case ColType::kBool:
        k.emplace_back(3, c->bools()[r]);
        break;
      case ColType::kItem:
        k.emplace_back(4 + static_cast<int>(c->items()[r].kind),
                       c->items()[r].raw);
        break;
    }
  }
  return k;
}

// First occurrences by a std::set of key tuples.
IdxVec SetDistinct(const Table& t, const std::vector<ColId>& keys) {
  std::vector<const Column*> cols = Cols(t, keys);
  std::set<KeyTuple> seen;
  IdxVec out;
  for (size_t r = 0; r < t.rows(); ++r) {
    if (seen.insert(KeyOf(cols, r)).second) {
      out.push_back(static_cast<RowIdx>(r));
    }
  }
  return out;
}

// Rows of `a` whose key tuple is not in the std::set of b's.
IdxVec SetDifference(const Table& a, const Table& b,
                     const std::vector<ColId>& keys) {
  std::vector<const Column*> acols = Cols(a, keys);
  std::vector<const Column*> bcols = Cols(b, keys);
  std::set<KeyTuple> present;
  for (size_t s = 0; s < b.rows(); ++s) present.insert(KeyOf(bcols, s));
  IdxVec out;
  for (size_t r = 0; r < a.rows(); ++r) {
    if (present.count(KeyOf(acols, r)) == 0) {
      out.push_back(static_cast<RowIdx>(r));
    }
  }
  return out;
}

// O(n^2) first-occurrence reference.
IdxVec NaiveDistinct(const Table& t, const std::vector<ColId>& keys) {
  std::vector<const Column*> cols = Cols(t, keys);
  IdxVec out;
  for (size_t r = 0; r < t.rows(); ++r) {
    bool dup = false;
    for (RowIdx p : out) {
      if (RowEq(cols, r, cols, p)) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(static_cast<RowIdx>(r));
  }
  return out;
}

// O(na*nb) anti-semijoin reference.
IdxVec NaiveDifference(const Table& a, const Table& b,
                       const std::vector<ColId>& keys) {
  std::vector<const Column*> acols = Cols(a, keys);
  std::vector<const Column*> bcols = Cols(b, keys);
  IdxVec out;
  for (size_t r = 0; r < a.rows(); ++r) {
    bool hit = false;
    for (size_t s = 0; s < b.rows(); ++s) {
      if (RowEq(acols, r, bcols, s)) {
        hit = true;
        break;
      }
    }
    if (!hit) out.push_back(static_cast<RowIdx>(r));
  }
  return out;
}

class DistinctDifferenceParallelTest : public ::testing::Test {
 protected:
  // Rows cycling through values that only representation equality
  // tells apart: +0.0 and -0.0, NaNs with two payloads, and items of
  // different kinds over the same raw bits (int 5, string id 5,
  // untyped id 5, node (0, 5), attribute (0, 5)).
  Table EdgeTable(size_t n, size_t shift) {
    const double nan1 = std::bit_cast<double>(0x7FF8000000000001ull);
    const double nan2 = std::bit_cast<double>(0x7FF8000000000002ull);
    const double dbls[] = {0.0, -0.0, nan1, nan2, 1.5};
    const Item items[] = {Item::Int(5), Item::Str(5), Item::Untyped(5),
                          Item::Node(0, 5), Item::Attr(0, 5), Item::Int(6),
                          Item::Bool(true), Item::Int(1)};
    Table t;
    auto ic = Column::MakeInt(n);
    auto dc = Column::MakeDbl(n);
    auto it = Column::MakeItem(n);
    for (size_t i = 0; i < n; ++i) {
      size_t j = i + shift;
      ic->ints().push_back(static_cast<int64_t>(j % 3));
      dc->dbls().push_back(dbls[j % 5]);
      it->items().push_back(items[(j / 2) % 8]);
    }
    t.AddCol(C("k"), std::move(ic));
    t.AddCol(C("d"), std::move(dc));
    t.AddCol(C("v"), std::move(it));
    return t;
  }

  // Skewed random table: `domain` distinct int keys Zipf-ishly reused,
  // an item column mixing all atomic kinds from a small value set, and
  // a double column where 0.0 / -0.0 exercise bit-pattern equality.
  Table RandTable(size_t n, int64_t domain, uint64_t seed) {
    Table t;
    auto ic = Column::MakeInt(n);
    auto it = Column::MakeItem(n);
    auto dc = Column::MakeDbl(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      // Skew: half the rows land in a tenth of the domain.
      int64_t hi = rng.Chance(0.5) ? (domain / 10 + 1) : domain;
      ic->ints().push_back(rng.Range(0, hi));
      switch (rng.Below(4)) {
        case 0:
          it->items().push_back(Item::Int(rng.Range(-20, 20)));
          break;
        case 1:
          it->items().push_back(Item::Dbl(rng.Range(-20, 20) * 0.5));
          break;
        case 2:
          it->items().push_back(
              Item::Str(pool_.Intern("v" + std::to_string(rng.Below(16)))));
          break;
        default:
          it->items().push_back(Item::Bool(rng.Chance(0.5)));
          break;
      }
      double d = rng.Chance(0.25) ? 0.0 : static_cast<double>(rng.Range(0, 4));
      if (rng.Chance(0.5)) d = -d;  // -0.0 != 0.0 representationally
      dc->dbls().push_back(d);
    }
    t.AddCol(C("k"), std::move(ic));
    t.AddCol(C("v"), std::move(it));
    t.AddCol(C("d"), std::move(dc));
    return t;
  }

  StringPool pool_;
};

TEST_F(DistinctDifferenceParallelTest, DistinctMatchesNaiveReference) {
  // Small enough for the quadratic oracle, duplicate-heavy enough that
  // most rows are dropped.
  Table t = RandTable(2500, 40, 101);
  for (const std::vector<ColId>& keys :
       {std::vector<ColId>{}, InternCols({"k"}), InternCols({"k", "v"}),
        InternCols({"d"})}) {
    auto r = DistinctIndices(t, keys);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, NaiveDistinct(t, keys));
  }
}

TEST_F(DistinctDifferenceParallelTest, EdgeCasesMatchNaive) {
  const std::vector<std::vector<ColId>> key_sets = {
      InternCols({"d"}),      InternCols({"v"}),
      InternCols({"k"}),      InternCols({"d", "v"}),
      InternCols({"v", "k"}), InternCols({"k", "d", "v"}),
      {}};
  for (size_t n : {size_t{1}, size_t{7}, size_t{120}, size_t{3000}}) {
    Table t = EdgeTable(n, 0);
    Table b = EdgeTable(n / 3, 11);
    for (const auto& keys : key_sets) {
      auto d = DistinctIndices(t, keys);
      ASSERT_TRUE(d.ok());
      EXPECT_EQ(*d, NaiveDistinct(t, keys))
          << "n=" << n << " keys=" << keys.size();
      auto f = DifferenceIndices(t, b, keys);
      ASSERT_TRUE(f.ok());
      EXPECT_EQ(*f, NaiveDifference(t, b, keys))
          << "n=" << n << " keys=" << keys.size();
    }
  }
  // The edge values really are told apart: 40 rows cycle through all
  // 5 doubles and all 8 items.
  Table t = EdgeTable(40, 0);
  EXPECT_EQ(DistinctIndices(t, InternCols({"d"}))->size(), 5u);
  EXPECT_EQ(DistinctIndices(t, InternCols({"v"}))->size(), 8u);
}

TEST_F(DistinctDifferenceParallelTest, DifferenceIntColumnAgainstItemColumn) {
  // Int 5 and item Int(5) have equal payload bits but different column
  // types, so no row of `a` is subtracted.
  Table a;
  auto ai = Column::MakeInt();
  ai->ints() = {5, 6, 5};
  a.AddCol(C("x"), std::move(ai));
  Table b;
  auto bi = Column::MakeItem();
  bi->items() = {Item::Int(5), Item::Int(6)};
  b.AddCol(C("x"), std::move(bi));
  IdxVec all = {0, 1, 2};
  EXPECT_EQ(NaiveDifference(a, b, InternCols({"x"})), all);
  auto r = DifferenceIndices(a, b, InternCols({"x"}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, all);
}

TEST_F(DistinctDifferenceParallelTest, EmptyInputs) {
  Table empty = EdgeTable(0, 0);
  Table some = EdgeTable(30, 0);
  IdxVec all(some.rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<RowIdx>(i);
  for (const std::vector<ColId>& keys :
       {InternCols({"k"}), InternCols({"d", "v"}), {}}) {
    EXPECT_TRUE(DistinctIndices(empty, keys)->empty());
    EXPECT_TRUE(DifferenceIndices(empty, some, keys)->empty());
    EXPECT_TRUE(DifferenceIndices(empty, empty, keys)->empty());
    EXPECT_EQ(*DifferenceIndices(some, empty, keys), all);
  }
}

TEST_F(DistinctDifferenceParallelTest, DistinctLargeMatchesSetReference) {
  // 50,000 skewed rows whose dense duplicates make most rows hit a
  // stored key, so the first-occurrence rule decides every winner.
  Table t = RandTable(50000, 3000, 202);
  for (const std::vector<ColId>& keys :
       {std::vector<ColId>{}, InternCols({"k"}), InternCols({"v", "d"})}) {
    auto r = DistinctIndices(t, keys);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, SetDistinct(t, keys));
  }
}

TEST_F(DistinctDifferenceParallelTest, DistinctEmptyInput) {
  Table t = RandTable(0, 10, 7);
  auto r = DistinctIndices(t, InternCols({"k"}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(DistinctDifferenceParallelTest, DifferenceMatchesNaiveReference) {
  Table a = RandTable(2000, 60, 303);
  Table b = RandTable(1500, 60, 304);
  for (const std::vector<ColId>& keys :
       {std::vector<ColId>{}, InternCols({"k"}), InternCols({"k", "v"})}) {
    auto r = DifferenceIndices(a, b, keys);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, NaiveDifference(a, b, keys));
  }
}

TEST_F(DistinctDifferenceParallelTest, DifferenceLargeMatchesSetReference) {
  // 50,000 skewed rows against 30,000 over the same key domains, so
  // most probes hit a stored key.
  Table a = RandTable(50000, 4000, 405);
  Table b = RandTable(30000, 4000, 406);
  for (const std::vector<ColId>& keys :
       {std::vector<ColId>{}, InternCols({"k"}), InternCols({"v", "d"})}) {
    auto r = DifferenceIndices(a, b, keys);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, SetDifference(a, b, keys));
  }
}

TEST_F(DistinctDifferenceParallelTest, DifferenceEmptyA) {
  Table a = RandTable(0, 10, 1);
  Table b = RandTable(100, 10, 2);
  auto r = DifferenceIndices(a, b, InternCols({"k"}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

// Regression: an empty subtrahend must short-circuit to the identity
// index vector — every row of `a` survives, on 20,000 rows, whatever
// the keys.
TEST_F(DistinctDifferenceParallelTest, DifferenceEmptyBIsIdentity) {
  Table a = RandTable(20000, 50, 3);
  Table b = RandTable(0, 50, 4);
  IdxVec expect(a.rows());
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<RowIdx>(i);
  }
  for (const std::vector<ColId>& keys : {InternCols({"k"}), {}}) {
    auto r = DifferenceIndices(a, b, keys);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, expect);
  }
}

}  // namespace
}  // namespace pathfinder::bat
