#include "base/string_pool.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>

namespace pathfinder {

StringPool::StringPool()
    : blocks_(static_cast<BlockPtr*>(
          ::operator new(kMaxBlocks * sizeof(BlockPtr)))) {}

StringPool::~StringPool() {
  const size_t n = size_.load(std::memory_order_relaxed);
  for (size_t b = 0; b * kBlockSize < n; ++b) {
    auto* block =
        const_cast<std::string*>(blocks_[b].load(std::memory_order_relaxed));
    const size_t used = std::min(kBlockSize, n - b * kBlockSize);
    for (size_t i = 0; i < used; ++i) std::destroy_at(&block[i]);
    ::operator delete(block);
    std::destroy_at(&blocks_[b]);
  }
  ::operator delete(blocks_);
}

StrId StringPool::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  size_t id = size_.load(std::memory_order_relaxed);
  size_t b = id >> kBlockBits;
  assert(b < kMaxBlocks && "StringPool capacity exceeded");
  std::string* block;
  if ((id & kBlockMask) == 0) {
    block = static_cast<std::string*>(
        ::operator new(kBlockSize * sizeof(std::string)));
    std::construct_at(&blocks_[b], block);
  } else {
    // const_cast: slots are only mutated here, under mu_, before their id
    // is published; readers see them as const.
    block =
        const_cast<std::string*>(blocks_[b].load(std::memory_order_relaxed));
  }
  std::string* slot = std::construct_at(&block[id & kBlockMask], s);
  payload_bytes_ += s.size();
  index_.emplace(std::string_view(*slot), static_cast<StrId>(id));
  // Publish the id only after the slot holds its final contents.
  size_.store(id + 1, std::memory_order_release);
  return static_cast<StrId>(id);
}

bool StringPool::Find(std::string_view s, StrId* id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  if (it == index_.end()) return false;
  *id = it->second;
  return true;
}

size_t StringPool::payload_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return payload_bytes_;
}

}  // namespace pathfinder
