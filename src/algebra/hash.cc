#include "algebra/hash.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace pathfinder::algebra {

namespace {

constexpr uint64_t kSeed = 0x853C49E6748FEA9Bull;

uint64_t Mix(uint64_t h, uint64_t v) {
  v *= 0x9E3779B97F4A7C15ull;
  v ^= v >> 32;
  v *= 0xBF58476D1CE4E5B9ull;
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashCol(ColId c) { return Mix(0x2545F4914F6CDD1Dull, c); }

uint64_t HashItem(const Item& it) {
  return Mix(static_cast<uint64_t>(it.kind), it.raw);
}

/// Fun2 operators whose operands may swap without changing any result
/// bit: integer +/* wrap symmetrically, IEEE double +/* are commutative
/// (the engine only ever produces the canonical quiet NaN), eq/ne are
/// symmetric value comparisons, and/or are boolean.
bool IsCommutativeFun2(Fun2 f) {
  switch (f) {
    case Fun2::kAdd:
    case Fun2::kMul:
    case Fun2::kCmpEq:
    case Fun2::kCmpNe:
    case Fun2::kAnd:
    case Fun2::kOr:
      return true;
    default:
      return false;
  }
}

/// Does this kind compare its (col, col2) pair unordered?
bool UnorderedColPair(const Op& op) {
  return op.kind == OpKind::kFun2 && IsCommutativeFun2(op.fun2);
}

/// Does this kind treat `keys` as a set?
bool UnorderedKeys(OpKind k) {
  return k == OpKind::kDistinct || k == OpKind::kDifference;
}

/// Order-insensitive hash of a column list (a sum of per-id hashes).
uint64_t HashColSet(const std::vector<ColId>& v) {
  uint64_t h = 0;
  for (ColId c : v) h += HashCol(c);
  return h;
}

/// Equal as multisets (the lists are a handful of ids long).
bool SameColMultiset(const std::vector<ColId>& a,
                     const std::vector<ColId>& b) {
  if (a.size() != b.size()) return false;
  for (ColId c : a) {
    if (std::count(a.begin(), a.end(), c) !=
        std::count(b.begin(), b.end(), c)) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t LocalParamsHash(const Op& op) {
  uint64_t h = Mix(kSeed, static_cast<uint64_t>(op.kind));
  h = Mix(h, op.proj.size());
  for (const auto& [nw, old] : op.proj) {
    h = Mix(h, nw);
    h = Mix(h, old);
  }
  if (UnorderedColPair(op)) {
    // Order-insensitive combination of the operand pair.
    h = Mix(h, HashCol(op.col) + HashCol(op.col2));
  } else {
    h = Mix(h, op.col);
    h = Mix(h, op.col2);
  }
  h = Mix(h, op.out);
  if (op.kind == OpKind::kRowNum) {
    h = Mix(h, HashColSet(op.part));
  } else {
    for (ColId p : op.part) h = Mix(h, p);
  }
  for (ColId o : op.order) h = Mix(h, o);
  for (uint8_t d : op.order_desc) h = Mix(h, d);
  if (UnorderedKeys(op.kind)) {
    h = Mix(h, HashColSet(op.keys));
  } else {
    for (ColId k : op.keys) h = Mix(h, k);
  }
  h = Mix(h, op.attr_name);
  h = Mix(h, static_cast<uint64_t>(op.axis));
  h = Mix(h, static_cast<uint64_t>(op.test.kind));
  h = Mix(h, op.test.name);
  h = Mix(h, op.path.size());
  for (const PathStep& s : op.path) {
    h = Mix(h, static_cast<uint64_t>(s.axis));
    h = Mix(h, static_cast<uint64_t>(s.test.kind));
    h = Mix(h, s.test.name);
  }
  h = Mix(h, static_cast<uint64_t>(op.fun1));
  h = Mix(h, static_cast<uint64_t>(op.fun2));
  h = Mix(h, static_cast<uint64_t>(op.cmp));
  h = Mix(h, static_cast<uint64_t>(op.agg));
  for (ColId n : op.names) h = Mix(h, n);
  for (auto t : op.types) h = Mix(h, static_cast<uint64_t>(t));
  h = Mix(h, op.rows.size());
  for (const auto& row : op.rows) {
    for (const Item& cell : row) h = Mix(h, HashItem(cell));
  }
  h = Mix(h, HashItem(op.attach_val));
  return h;
}

bool LocalParamsEqual(const Op& a, const Op& b) {
  if (a.kind != b.kind) return false;
  if (a.proj != b.proj) return false;
  if (UnorderedColPair(a)) {
    if (a.fun2 != b.fun2) return false;
    bool straight = a.col == b.col && a.col2 == b.col2;
    bool swapped = a.col == b.col2 && a.col2 == b.col;
    if (!straight && !swapped) return false;
  } else {
    if (a.col != b.col || a.col2 != b.col2) return false;
  }
  if (a.out != b.out) return false;
  if (a.kind == OpKind::kRowNum) {
    if (!SameColMultiset(a.part, b.part)) return false;
  } else {
    if (a.part != b.part) return false;
  }
  if (a.order != b.order || a.order_desc != b.order_desc) return false;
  if (UnorderedKeys(a.kind)) {
    if (!SameColMultiset(a.keys, b.keys)) return false;
  } else {
    if (a.keys != b.keys) return false;
  }
  if (a.attr_name != b.attr_name) return false;
  if (a.axis != b.axis || a.test.kind != b.test.kind ||
      a.test.name != b.test.name) {
    return false;
  }
  if (a.path.size() != b.path.size()) return false;
  for (size_t i = 0; i < a.path.size(); ++i) {
    if (a.path[i].axis != b.path[i].axis ||
        a.path[i].test.kind != b.path[i].test.kind ||
        a.path[i].test.name != b.path[i].test.name) {
      return false;
    }
  }
  if (a.fun1 != b.fun1 || a.fun2 != b.fun2 || a.cmp != b.cmp ||
      a.agg != b.agg) {
    return false;
  }
  if (a.names != b.names || a.types != b.types) return false;
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!(a.rows[r][c] == b.rows[r][c])) return false;
    }
  }
  return a.attach_val == b.attach_val;
}

uint64_t CombineChildHash(uint64_t h, uint64_t child_hash) {
  return Mix(h, child_hash);
}

std::vector<uint64_t> StructuralHashes(const PlanNumbering& plan) {
  std::vector<uint64_t> hashes(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const Op* op = plan.nodes[i];
    uint64_t h = LocalParamsHash(*op);
    for (const auto& c : op->children) {
      h = CombineChildHash(h, hashes[plan.IndexOf(c.get())]);
    }
    hashes[i] = h;
  }
  return hashes;
}

uint64_t StructuralHash(const OpPtr& root) {
  return StructuralHashes(NumberPlan(root)).back();
}

namespace {

/// Memo of compared node pairs: open addressing over (a, b) keys in
/// one slot array kept at most half full.
class PairMemo {
 public:
  /// The recorded verdict for (a, b), or null.
  bool* Find(const Op* a, const Op* b) {
    if (slots_.empty()) return nullptr;
    for (size_t i = Home(a, b);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (s.a == a && s.b == b) return &s.equal;
      if (s.a == nullptr) return nullptr;
    }
  }

  /// Record (a, b), absent so far, as `equal`.
  bool* Insert(const Op* a, const Op* b, bool equal) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (size_t i = Home(a, b);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (s.a == nullptr) {
        s = {a, b, equal};
        ++size_;
        return &s.equal;
      }
    }
  }

 private:
  struct Slot {
    const Op* a = nullptr;
    const Op* b = nullptr;
    bool equal = false;
  };

  size_t Home(const Op* a, const Op* b) const {
    return static_cast<size_t>(Mix(reinterpret_cast<uintptr_t>(a),
                                   reinterpret_cast<uintptr_t>(b))) &
           (slots_.size() - 1);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.a != nullptr) Insert(s.a, s.b, s.equal);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

bool EqualRec(const Op& a, const Op& b, PairMemo* memo) {
  if (&a == &b) return true;
  if (bool* known = memo->Find(&a, &b)) return *known;
  // Optimistically assume equal while descending: plans are DAGs (no
  // cycles), so the provisional entry is only ever read by sibling
  // paths that reached the same pair through shared nodes.
  memo->Insert(&a, &b, true);
  bool eq = LocalParamsEqual(a, b) && a.children.size() == b.children.size();
  for (size_t i = 0; eq && i < a.children.size(); ++i) {
    eq = EqualRec(*a.children[i], *b.children[i], memo);
  }
  // Re-find: the inserts below may have moved the slot.
  *memo->Find(&a, &b) = eq;
  return eq;
}

}  // namespace

bool StructurallyEqual(const Op& a, const Op& b) {
  PairMemo memo;
  return EqualRec(a, b, &memo);
}

size_t ApproxPlanBytes(const OpPtr& root) {
  size_t total = 0;
  for (const Op* op : TopoOrder(root)) {
    total += sizeof(Op);
    total += op->proj.capacity() * sizeof(op->proj[0]);
    total += (op->part.capacity() + op->order.capacity() +
              op->keys.capacity() + op->names.capacity()) *
             sizeof(ColId);
    total += op->order_desc.capacity();
    total += op->types.capacity() * sizeof(bat::ColType);
    total += op->path.capacity() * sizeof(PathStep);
    for (const auto& row : op->rows) total += row.capacity() * sizeof(Item);
    total += op->children.capacity() * sizeof(OpPtr);
  }
  return total;
}

}  // namespace pathfinder::algebra
