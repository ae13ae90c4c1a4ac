#ifndef PATHFINDER_BAT_TABLE_H_
#define PATHFINDER_BAT_TABLE_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "bat/col_id.h"
#include "bat/column.h"

namespace pathfinder::bat {

/// An in-memory relation: named columns of equal length. Columns are
/// named by ColId (bat/col_id.h).
///
/// All algebra operators consume and produce Tables. Columns are shared
/// (copy-on-write by convention: a column reachable from a Table is never
/// mutated), so projection and renaming are O(#columns).
class Table {
 public:
  Table() = default;

  /// Number of rows (0 for the empty schema-only table).
  size_t rows() const { return rows_; }
  size_t num_cols() const { return cols_.size(); }

  const std::vector<ColId>& names() const { return names_; }
  ColId name(size_t i) const { return names_[i]; }
  const ColumnPtr& col(size_t i) const { return cols_[i]; }

  /// Index of column `name`, or -1.
  int FindCol(ColId name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Column by name; Status error if absent (kInternal — schema mismatch
  /// is a plan bug, not user input).
  Result<ColumnPtr> GetCol(ColId name) const;

  /// Append a column. The first column fixes the row count; subsequent
  /// columns must match it (checked by assert).
  void AddCol(ColId name, ColumnPtr col);

  /// Replace the column at index i (same length).
  void SetCol(size_t i, ColumnPtr col) { cols_[i] = std::move(col); }

  /// Rows with columns in `names` order rendered for debugging/tests.
  std::string ToString(const StringPool* pool = nullptr,
                       size_t max_rows = 64) const;

  /// Sum of column payload bytes.
  size_t ByteSize() const;

  /// Allocated bytes (column capacities + the name and column vectors)
  /// — resident footprint of a cached result. Shared columns are
  /// counted once per Table; the cache accepts the overestimate for
  /// shared ColumnPtrs.
  size_t AllocBytes() const;

 private:
  std::vector<ColId> names_;
  std::vector<ColumnPtr> cols_;
  size_t rows_ = 0;
  bool has_rows_set_ = false;
};

}  // namespace pathfinder::bat

#endif  // PATHFINDER_BAT_TABLE_H_
