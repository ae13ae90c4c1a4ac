#include "algebra/join_pattern.h"

#include <algorithm>
#include <set>
#include <utility>

namespace pathfinder::algebra {

namespace {

constexpr size_t kMaxKeysPerOp = 4;
constexpr size_t kMaxKeyWidth = 4;

bool IsSubset(const std::vector<std::string>& a,
              const std::vector<std::string>& b) {
  // Both sorted.
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

// ---------------------------------------------------------------------
// KeyAnalysis

void KeyAnalysis::AddKey(const Op* op, std::vector<std::string> key) {
  if (key.size() > kMaxKeyWidth) return;
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  auto& ks = keys_[op];
  for (const auto& k : ks) {
    if (IsSubset(k, key)) return;  // an existing key is at least as strong
  }
  ks.erase(std::remove_if(ks.begin(), ks.end(),
                          [&](const std::vector<std::string>& k) {
                            return IsSubset(key, k);
                          }),
           ks.end());
  if (ks.size() < kMaxKeysPerOp) ks.push_back(std::move(key));
}

bool KeyAnalysis::CoversKey(const Op* op,
                            const std::vector<std::string>& cols) const {
  auto it = keys_.find(op);
  if (it == keys_.end()) return false;
  std::vector<std::string> sorted = cols;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const auto& k : it->second) {
    if (IsSubset(k, sorted)) return true;
  }
  return false;
}

namespace {

/// Distinct literal cells of one LitTable column?
bool ColumnLiterallyDistinct(const Op& op, size_t c) {
  std::set<std::pair<uint8_t, uint64_t>> seen;
  for (const auto& row : op.rows) {
    const Item& it = row[c];
    if (!seen.emplace(static_cast<uint8_t>(it.kind), it.raw).second) {
      return false;
    }
  }
  return true;
}

bool ItemIsNode(const Item& it) {
  return it.kind == ItemKind::kNode || it.kind == ItemKind::kAttr;
}

}  // namespace

KeyAnalysis InferKeys(const OpPtr& root, const StepUniqueness& step_unique) {
  KeyAnalysis a;
  for (Op* op : TopoOrder(root)) {
    auto child_keys = [&](size_t i) {
      return a.KeysOf(op->children[i].get());
    };
    auto carry = [&](size_t i) {
      if (const auto* ks = child_keys(i)) {
        for (const auto& k : *ks) a.AddKey(op, k);
      }
    };

    // Constructed-node taint: stats-backed step facts only apply to
    // nodes of registered store documents.
    bool store_only = true;
    switch (op->kind) {
      case OpKind::kElemConstr:
      case OpKind::kTextConstr:
      case OpKind::kAttrConstr:
        store_only = false;
        break;
      case OpKind::kLitTable:
        for (const auto& row : op->rows) {
          for (const Item& cell : row) {
            if (ItemIsNode(cell)) store_only = false;
          }
        }
        break;
      case OpKind::kDocRoot:
        store_only = true;  // emits store document roots only
        break;
      default:
        for (const auto& c : op->children) {
          store_only = store_only && a.store_only_[c.get()];
        }
        break;
    }
    a.store_only_[op] = store_only;

    switch (op->kind) {
      case OpKind::kLitTable: {
        for (size_t c = 0; c < op->names.size(); ++c) {
          if (op->rows.size() <= 1 || ColumnLiterallyDistinct(*op, c)) {
            a.AddKey(op, {op->names[c]});
          }
        }
        break;
      }
      case OpKind::kProject: {
        const auto* ks = child_keys(0);
        if (ks == nullptr) break;
        for (const auto& k : *ks) {
          std::vector<std::string> mapped;
          bool ok = true;
          for (const auto& col : k) {
            const std::string* nw = nullptr;
            for (const auto& [n, old] : op->proj) {
              if (old == col) {
                nw = &n;
                break;
              }
            }
            if (nw == nullptr) {
              ok = false;
              break;
            }
            mapped.push_back(*nw);
          }
          if (ok) a.AddKey(op, std::move(mapped));
        }
        break;
      }
      case OpKind::kAttach:
      case OpKind::kFun1:
      case OpKind::kFun2:
      case OpKind::kSelect:
      case OpKind::kSerialize:
      case OpKind::kDifference:
        carry(0);
        break;
      case OpKind::kRowNum:
        carry(0);
        if (op->part.empty()) {
          a.AddKey(op, {op->out});
        } else {
          std::vector<std::string> k = op->part;
          k.push_back(op->out);
          a.AddKey(op, std::move(k));
        }
        break;
      case OpKind::kDistinct:
        carry(0);
        if (!op->keys.empty()) a.AddKey(op, op->keys);
        break;
      case OpKind::kStep: {
        a.AddKey(op, {"iter", "item"});
        bool iter_unique_in =
            a.CoversKey(op->children[0].get(), {"iter"});
        if (iter_unique_in) {
          // Structural single-result axes need no statistics.
          bool one_per_context = op->axis == accel::Axis::kSelf ||
                                 op->axis == accel::Axis::kParent;
          if (!one_per_context && step_unique &&
              a.store_only_[op->children[0].get()]) {
            one_per_context = step_unique(op->axis, op->test);
          }
          if (one_per_context) a.AddKey(op, {"iter"});
        }
        break;
      }
      case OpKind::kDocRoot:
        if (a.CoversKey(op->children[0].get(), {"iter"})) {
          a.AddKey(op, {"iter"});
        }
        break;
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
      case OpKind::kCross: {
        const auto* kl = child_keys(0);
        const auto* kr = child_keys(1);
        if (kl != nullptr && kr != nullptr) {
          for (const auto& l : *kl) {
            for (const auto& r : *kr) {
              std::vector<std::string> k = l;
              k.insert(k.end(), r.begin(), r.end());
              a.AddKey(op, std::move(k));
            }
          }
        }
        if (op->kind == OpKind::kEquiJoin) {
          // A join whose key is unique on one side matches each row of
          // the other side at most once: that side's keys survive.
          const Op* l = op->children[0].get();
          const Op* r = op->children[1].get();
          if (a.IsUniqueCol(r, op->col2)) carry(0);
          if (a.IsUniqueCol(l, op->col)) carry(1);
        }
        break;
      }
      case OpKind::kAggr:
        a.AddKey(op, {op->col});
        break;
      case OpKind::kElemConstr:
      case OpKind::kTextConstr:
      case OpKind::kAttrConstr:
        // One constructed node per iteration; nodes are fresh.
        a.AddKey(op, {"iter"});
        a.AddKey(op, {"item"});
        break;
      case OpKind::kStrJoin:
        a.AddKey(op, {"iter"});
        break;
      case OpKind::kDisjointUnion:
        break;
    }
  }
  return a;
}

}  // namespace pathfinder::algebra
