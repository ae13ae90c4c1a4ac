#ifndef PATHFINDER_BASE_STRING_POOL_H_
#define PATHFINDER_BASE_STRING_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace pathfinder {

/// Id of an interned string. Dense, starting at 0.
using StrId = uint32_t;

/// Append-only interning pool.
///
/// This is the "property BAT" of the paper's Section 3.1: node properties
/// (tag names, text content, attribute values) are kept unique here and
/// referenced by surrogate (StrId). Nodes with identical properties share
/// the same surrogate, which both avoids string comparisons at query time
/// and reduces storage.
///
/// Thread safety: `Get` is wait-free and may run concurrently with
/// `Intern`/`Find` on other threads; `Intern` and `Find` serialize on an
/// internal mutex. Storage is a two-level directory of fixed-size string
/// blocks: a published id's block pointer and slot are written before the
/// id escapes the mutex, and neither ever moves afterwards, so readers
/// never observe a slot under construction. Directory entries and slots
/// are constructed only when first used, so the untouched part of the
/// directory and of the last block costs no resident memory: a small
/// pool (the column dictionary, bat/col_id.h) stays small. Note that
/// the *numbering* of ids depends on interning order (and hence on
/// morsel scheduling); ids must therefore only be used for equality and
/// resolved to content before any ordering or serialization decision.
class StringPool {
 public:
  StringPool();
  ~StringPool();
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Intern `s`, returning its (possibly pre-existing) surrogate.
  StrId Intern(std::string_view s);

  /// Look up an already-interned string; returns false if absent.
  bool Find(std::string_view s, StrId* id) const;

  /// The string for a surrogate. `id` must be valid (obtained from a
  /// prior Intern/Find whose completion happens-before this call).
  std::string_view Get(StrId id) const {
    const std::string* block =
        blocks_[id >> kBlockBits].load(std::memory_order_acquire);
    return block[id & kBlockMask];
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Total bytes of unique string payload (for storage accounting).
  size_t payload_bytes() const;

 private:
  static constexpr size_t kBlockBits = 13;  // 8192 strings per block
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;
  static constexpr size_t kBlockMask = kBlockSize - 1;
  static constexpr size_t kMaxBlocks = size_t{1} << 15;  // 2^28 strings

  using BlockPtr = std::atomic<const std::string*>;

  // Directory of lazily-allocated blocks. Fixed-size so readers index it
  // without synchronizing on growth. Raw storage: entry b is constructed
  // when block b is allocated, before any of its ids is published, and
  // only such entries are read. Blocks are raw storage too; Intern
  // constructs each slot.
  BlockPtr* blocks_;
  std::atomic<size_t> size_{0};

  mutable std::mutex mu_;
  // Guarded by mu_. Keys view into block slots, whose addresses are
  // stable for the pool's lifetime.
  std::unordered_map<std::string_view, StrId> index_;
  size_t payload_bytes_ = 0;
};

}  // namespace pathfinder

#endif  // PATHFINDER_BASE_STRING_POOL_H_
