#include "algebra/join_pattern.h"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

namespace pathfinder::algebra {

namespace {

constexpr size_t kMaxKeysPerOp = 4;
constexpr int kMaxKeyWidth = 4;

/// a ⊆ b over `words`-wide bitsets.
bool IsSubset(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if (a[w] & ~b[w]) return false;
  }
  return true;
}

int Width(const uint64_t* key, size_t words) {
  int n = 0;
  for (size_t w = 0; w < words; ++w) n += std::popcount(key[w]);
  return n;
}

/// Call fn(local column number) for each member of `key`.
template <typename Fn>
void ForEachCol(const uint64_t* key, size_t words, Fn&& fn) {
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = key[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------
// KeyAnalysis

void KeyAnalysis::AddKey(size_t node, const uint64_t* key) {
  if (Width(key, words_) > kMaxKeyWidth) return;
  const size_t first = first_[node];
  size_t n = count_[node];
  for (size_t k = first; k < first + n; ++k) {
    // An existing key is at least as strong.
    if (IsSubset(Key(k), key, words_)) return;
  }
  // Drop the existing keys the new one is contained in, keeping order.
  size_t kept = first;
  for (size_t k = first; k < first + n; ++k) {
    if (IsSubset(key, Key(k), words_)) continue;
    if (kept != k) {
      std::copy_n(Key(k), words_, &key_bits_[kept * words_]);
    }
    ++kept;
  }
  n = kept - first;
  if (n < kMaxKeysPerOp) {
    std::copy_n(key, words_, &key_bits_[(first + n) * words_]);
    ++n;
  }
  count_[node] = static_cast<uint8_t>(n);
}

bool KeyAnalysis::CoversKey(const Op* op, const ColId* cols, size_t n) const {
  size_t i = plan_.IndexOf(op);
  if (i >= count_.size()) return false;
  for (size_t k = first_[i]; k < first_[i] + count_[i]; ++k) {
    bool within = true;
    ForEachCol(Key(k), words_, [&](uint32_t c) {
      within = within && std::find(cols, cols + n, cols_.Global(c)) != cols + n;
    });
    if (within) return true;
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
  a.plan_ = NumberPlan(root);
  AddPlanColumns(a.plan_, &a.cols_);
  auto L = [&a](ColId c) { return a.cols_.Local(c); };
  const size_t nodes = a.plan_.nodes.size();
  const size_t words = bat::ColWords(a.cols_.size());
  a.words_ = words;
  // At most kMaxKeysPerOp keys per node: the array never reallocates,
  // so pointers to earlier nodes' keys stay valid while one is added.
  a.key_bits_.resize(nodes * kMaxKeysPerOp * words);
  a.first_.resize(nodes);
  a.count_.assign(nodes, 0);
  a.store_only_.assign(nodes, 0);
  std::vector<uint64_t> key(words);
  auto clear = [&] { std::fill(key.begin(), key.end(), 0); };
  auto add_cols = [&](size_t i, std::initializer_list<ColId> cols) {
    clear();
    for (ColId c : cols) bat::SetColBit(key.data(), L(c));
    a.AddKey(i, key.data());
  };
  size_t next_key = 0;
  for (size_t i = 0; i < nodes; ++i) {
    const Op* op = a.plan_.nodes[i];
    a.first_[i] = static_cast<uint32_t>(next_key);
    auto kid = [&](size_t k) { return a.plan_.IndexOf(op->children[k].get()); };
    auto carry = [&](size_t k) {
      size_t c = kid(k);
      for (size_t j = a.first_[c]; j < a.first_[c] + a.count_[c]; ++j) {
        a.AddKey(i, a.Key(j));
      }
    };

    // Constructed-node taint: path-summary step facts only apply to
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
        for (size_t k = 0; k < op->children.size(); ++k) {
          store_only = store_only && a.store_only_[kid(k)];
        }
        break;
    }
    a.store_only_[i] = store_only;

    switch (op->kind) {
      case OpKind::kLitTable: {
        for (size_t c = 0; c < op->names.size(); ++c) {
          if (op->rows.size() <= 1 || ColumnLiterallyDistinct(*op, c)) {
            add_cols(i, {op->names[c]});
          }
        }
        break;
      }
      case OpKind::kProject: {
        size_t c = kid(0);
        for (size_t j = a.first_[c]; j < a.first_[c] + a.count_[c]; ++j) {
          clear();
          bool ok = true;
          ForEachCol(a.Key(j), words, [&](uint32_t c) {
            if (!ok) return;
            const ColId col = a.cols_.Global(c);
            auto it = std::find_if(
                op->proj.begin(), op->proj.end(),
                [&](const auto& p) { return p.second == col; });
            if (it == op->proj.end()) {
              ok = false;
            } else {
              bat::SetColBit(key.data(), L(it->first));
            }
          });
          if (ok) a.AddKey(i, key.data());
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
        clear();
        for (ColId p : op->part) bat::SetColBit(key.data(), L(p));
        bat::SetColBit(key.data(), L(op->out));
        a.AddKey(i, key.data());
        break;
      case OpKind::kDistinct:
        carry(0);
        if (!op->keys.empty()) {
          clear();
          for (ColId k : op->keys) bat::SetColBit(key.data(), L(k));
          a.AddKey(i, key.data());
        }
        break;
      case OpKind::kStep: {
        add_cols(i, {bat::kIter, bat::kItem});
        const Op* in = op->children[0].get();
        if (a.IsUniqueCol(in, bat::kIter)) {
          // Structural single-result axes need no statistics.
          bool one_per_context = op->axis == accel::Axis::kSelf ||
                                 op->axis == accel::Axis::kParent;
          if (!one_per_context && step_unique && a.store_only_[kid(0)]) {
            one_per_context = step_unique(op->axis, op->test);
          }
          if (one_per_context) add_cols(i, {bat::kIter});
        }
        break;
      }
      case OpKind::kDocRoot:
        if (a.IsUniqueCol(op->children[0].get(), bat::kIter)) {
          add_cols(i, {bat::kIter});
        }
        break;
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
      case OpKind::kCross: {
        size_t l = kid(0), r = kid(1);
        for (size_t kl = a.first_[l]; kl < a.first_[l] + a.count_[l]; ++kl) {
          for (size_t kr = a.first_[r]; kr < a.first_[r] + a.count_[r];
               ++kr) {
            for (size_t w = 0; w < words; ++w) {
              key[w] = a.Key(kl)[w] | a.Key(kr)[w];
            }
            a.AddKey(i, key.data());
          }
        }
        if (op->kind == OpKind::kEquiJoin) {
          // A join whose key is unique on one side matches each row of
          // the other side at most once: that side's keys survive.
          if (a.IsUniqueCol(op->children[1].get(), op->col2)) carry(0);
          if (a.IsUniqueCol(op->children[0].get(), op->col)) carry(1);
        }
        break;
      }
      case OpKind::kAggr:
        add_cols(i, {op->col});
        break;
      case OpKind::kElemConstr:
      case OpKind::kTextConstr:
      case OpKind::kAttrConstr:
        // One constructed node per iteration; nodes are fresh.
        add_cols(i, {bat::kIter});
        add_cols(i, {bat::kItem});
        break;
      case OpKind::kStrJoin:
        add_cols(i, {bat::kIter});
        break;
      case OpKind::kDisjointUnion:
      case OpKind::kPathScan:
        break;
    }
    next_key += a.count_[i];
  }
  return a;
}

}  // namespace pathfinder::algebra
