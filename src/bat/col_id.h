#ifndef PATHFINDER_BAT_COL_ID_H_
#define PATHFINDER_BAT_COL_ID_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace pathfinder::bat {

/// Id of a column name in the process-wide column dictionary.
///
/// Plans, schemas and tables name their columns by ColId. The
/// dictionary is append-only and shared by every compilation in the
/// process, so an id is fixed once a column is minted and stays valid
/// (and means the same name) for the life of the process: structural
/// hashes over ids can key cross-query caches. Only the compiler and
/// the optimizer mint names (`iter12`, `jp0_item`), never user input,
/// so the dictionary stays as small as the set of names plans use.
/// It is deliberately not a database's StringPool: that pool's payload
/// counts toward the document's storage footprint.
using ColId = uint32_t;

/// The loop-lifted sequence encoding's fixed columns and the compiler's
/// scope-map columns, interned first so their ids are constants.
inline constexpr ColId kIter = 0;
inline constexpr ColId kPos = 1;
inline constexpr ColId kItem = 2;
inline constexpr ColId kInner = 3;
inline constexpr ColId kOuter = 4;

/// "No column" (e.g. the absent value column of a count aggregate).
inline constexpr ColId kNoCol = UINT32_MAX;

/// Intern `name`, returning its (possibly pre-existing) id. Thread-safe.
ColId InternCol(std::string_view name);

/// Intern each name, in order.
std::vector<ColId> InternCols(std::initializer_list<std::string_view> names);

/// The name of `id` ("" for kNoCol). Wait-free.
std::string_view ColName(ColId id);

// ---------------------------------------------------------------------
// Column sets of one plan as bitsets. The dictionary only grows, and one
// large query can add tens of thousands of names, so bits are not
// indexed by ColId but by a dense number local to the plan (PlanColumns):
// a set is as wide as its plan needs.

/// The columns one plan uses, numbered 0, 1, ... in order of first Add.
/// A flat open-addressing table maps ColId -> local number.
class PlanColumns {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Number `c` unless it is numbered already.
  void Add(ColId c) {
    if (2 * (cols_.size() + 1) > slots_.size()) Grow();
    for (size_t i = Home(c);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == 0) {
        cols_.push_back(c);
        slots_[i] = static_cast<uint32_t>(cols_.size());
        return;
      }
      if (cols_[slots_[i] - 1] == c) return;
    }
  }

  /// The local number of `c`, or kAbsent.
  uint32_t Local(ColId c) const {
    if (slots_.empty()) return kAbsent;
    for (size_t i = Home(c);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == 0) return kAbsent;
      if (cols_[slots_[i] - 1] == c) return slots_[i] - 1;
    }
  }

  size_t size() const { return cols_.size(); }

  void Clear() {
    cols_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

 private:
  size_t Home(ColId c) const {
    return static_cast<size_t>((uint64_t{c} * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }

  void Grow() {
    slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), 0);
    for (uint32_t n = 0; n < cols_.size(); ++n) {
      size_t i = Home(cols_[n]);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = n + 1;
    }
  }

  std::vector<ColId> cols_;      // local number -> ColId
  std::vector<uint32_t> slots_;  // 1 + local number; 0 = empty
};

/// Words a bitset over `n` local column numbers needs.
inline size_t ColWords(size_t n) { return (n + 63) / 64; }

inline void SetColBit(uint64_t* row, uint32_t bit) {
  row[bit >> 6] |= uint64_t{1} << (bit & 63);
}

inline bool TestColBit(const uint64_t* row, uint32_t bit) {
  return (row[bit >> 6] >> (bit & 63)) & 1;
}

/// Bitsets of equal width in one allocation, one row per plan node.
class ColBitRows {
 public:
  /// `rows` empty bitsets over `ncols` local column numbers.
  void Reset(size_t rows, size_t ncols) {
    words_ = ColWords(ncols);
    bits_.assign(rows * words_, 0);
  }

  size_t words() const { return words_; }
  uint64_t* Row(size_t r) { return bits_.data() + r * words_; }
  const uint64_t* Row(size_t r) const { return bits_.data() + r * words_; }

 private:
  size_t words_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace pathfinder::bat

#endif  // PATHFINDER_BAT_COL_ID_H_
