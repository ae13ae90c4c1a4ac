#ifndef PATHFINDER_BAT_COLUMN_H_
#define PATHFINDER_BAT_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "bat/item.h"

namespace pathfinder::bat {

/// Physical type of a column vector.
enum class ColType : uint8_t {
  kInt,   // int64_t — iter/pos/ord counters, surrogates
  kDbl,   // double
  kStr,   // StrId surrogate into a StringPool
  kBool,  // uint8_t 0/1 — predicate results
  kItem,  // polymorphic XQuery item
};

const char* ColTypeName(ColType t);

/// A single dense column vector (MonetDB "BAT tail").
///
/// Columns are created, filled, and then treated as immutable once they
/// are placed into a Table; operators always allocate fresh result
/// columns.
class Column {
 public:
  explicit Column(ColType type) : type_(type) {}

  /// Convenience factories that reserve `n` slots.
  static std::shared_ptr<Column> MakeInt(size_t reserve = 0);
  static std::shared_ptr<Column> MakeDbl(size_t reserve = 0);
  static std::shared_ptr<Column> MakeStr(size_t reserve = 0);
  static std::shared_ptr<Column> MakeBool(size_t reserve = 0);
  static std::shared_ptr<Column> MakeItem(size_t reserve = 0);

  /// Calls fn with the payload vectors of `cols` (every one of type
  /// `t`): fn(std::vector<T>&...) with T the element type of `t`, so one
  /// generic lambda serves every column type.
  template <typename Fn, typename... Cols>
  static decltype(auto) Visit(ColType t, Fn&& fn, Cols&... cols) {
    switch (t) {
      case ColType::kInt:
        return fn(cols.ints()...);
      case ColType::kDbl:
        return fn(cols.dbls()...);
      case ColType::kStr:
        return fn(cols.strs()...);
      case ColType::kBool:
        return fn(cols.bools()...);
      case ColType::kItem:
        break;
    }
    return fn(cols.items()...);
  }

  /// Append src's values (src has this column's type).
  void Append(const Column& src);

  ColType type() const { return type_; }
  size_t size() const;

  std::vector<int64_t>& ints() {
    assert(type_ == ColType::kInt);
    return ints_;
  }
  const std::vector<int64_t>& ints() const {
    assert(type_ == ColType::kInt);
    return ints_;
  }
  std::vector<double>& dbls() {
    assert(type_ == ColType::kDbl);
    return dbls_;
  }
  const std::vector<double>& dbls() const {
    assert(type_ == ColType::kDbl);
    return dbls_;
  }
  std::vector<StrId>& strs() {
    assert(type_ == ColType::kStr);
    return strs_;
  }
  const std::vector<StrId>& strs() const {
    assert(type_ == ColType::kStr);
    return strs_;
  }
  std::vector<uint8_t>& bools() {
    assert(type_ == ColType::kBool);
    return bools_;
  }
  const std::vector<uint8_t>& bools() const {
    assert(type_ == ColType::kBool);
    return bools_;
  }
  std::vector<Item>& items() {
    assert(type_ == ColType::kItem);
    return items_;
  }
  const std::vector<Item>& items() const {
    assert(type_ == ColType::kItem);
    return items_;
  }

  /// Bytes of payload held (storage accounting).
  size_t ByteSize() const;

  /// Bytes of payload *allocated* (vector capacity, not size) — honest
  /// resident-memory accounting for the cross-query result cache.
  size_t AllocBytes() const;

 private:
  ColType type_;
  std::vector<int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<StrId> strs_;
  std::vector<uint8_t> bools_;
  std::vector<Item> items_;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace pathfinder::bat

#endif  // PATHFINDER_BAT_COLUMN_H_
