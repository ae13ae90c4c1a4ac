#ifndef PATHFINDER_BASE_PTR_INDEX_H_
#define PATHFINDER_BASE_PTR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pathfinder {

/// Open-addressing map from a pointer to a dense 32-bit index: linear
/// probing in one power-of-two slot array kept at most half full. It
/// allocates only when it grows (or on the first insert), never per
/// entry. There is no erase; Clear keeps the capacity for reuse.
class PtrIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Size the table for `n` entries without further growth.
  void Reserve(size_t n) {
    if (2 * n > slots_.size()) Rehash(2 * n);
  }

  /// The index stored for `p`, or kAbsent.
  uint32_t Find(const void* p) const {
    if (size_ == 0) return kAbsent;
    for (size_t i = Home(p);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == p) return s.value;
      if (s.key == nullptr) return kAbsent;
    }
  }

  /// Map `p` (non-null) to `v` unless `p` is present; returns whether
  /// it inserted.
  bool Insert(const void* p, uint32_t v) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(2 * (size_ + 1));
    for (size_t i = Home(p);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == p) return false;
      if (s.key == nullptr) {
        s = {p, v};
        ++size_;
        return true;
      }
    }
  }

  void Clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    const void* key = nullptr;
    uint32_t value = kAbsent;
  };

  size_t Home(const void* p) const {
    uint64_t x = reinterpret_cast<uintptr_t>(p);
    return static_cast<size_t>((x * 0x9E3779B97F4A7C15ull) >> shift_) &
           mask_;
  }

  void Rehash(size_t min_slots) {
    size_t cap = 16;
    int bits = 4;
    while (cap < min_slots) {
      cap <<= 1;
      ++bits;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - bits;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != nullptr) Insert(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace pathfinder

#endif  // PATHFINDER_BASE_PTR_INDEX_H_
