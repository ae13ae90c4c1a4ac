#include "xml/document.h"

#include <algorithm>
#include <sstream>

namespace pathfinder::xml {

bool Document::Parent(Pre v, Pre* parent) const {
  uint16_t lv = level_[v];
  if (lv == 0) return false;
  // The parent is the nearest preceding node with a smaller level.
  for (Pre p = v; p-- > 0;) {
    if (level_[p] < lv) {
      *parent = p;
      return true;
    }
  }
  return false;
}

Pre Document::TreeRoot(Pre v) const {
  if (roots_.empty()) return 0;
  return *(std::upper_bound(roots_.begin(), roots_.end(), v) - 1);
}

std::string Document::StringValue(Pre v, const StringPool& pool) const {
  NodeKind k = kind(v);
  if (k == NodeKind::kAttr || k == NodeKind::kText ||
      k == NodeKind::kComment || k == NodeKind::kPi) {
    return std::string(pool.Get(value_[v]));
  }
  std::string out;
  Pre end = v + size_[v];
  for (Pre p = v + 1; p <= end; ++p) {
    if (kind(p) == NodeKind::kText) out += pool.Get(value_[p]);
  }
  return out;
}

size_t Document::EncodingBytes() const { return size_.size() * kNodeBytes; }

bool Document::Validate(std::string* error) const {
  auto fail = [error](const std::string& m) {
    if (error) *error = m;
    return false;
  };
  Pre n = num_nodes();
  if (n == 0) return fail("empty document");
  const std::vector<Pre> starts =
      roots_.empty() ? std::vector<Pre>{0} : roots_;
  if (starts[0] != 0) return fail("the first tree must start at pre 0");
  for (size_t t = 0; t < starts.size(); ++t) {
    Pre r = starts[t];
    Pre next = t + 1 < starts.size() ? starts[t + 1] : n;
    if (r >= next) return fail("tree roots must ascend within the document");
    if (kind(r) != NodeKind::kDoc || level_[r] != 0) {
      return fail("node " + std::to_string(r) +
                  " must be a document node at level 0");
    }
    if (size_[r] != next - r - 1) {
      return fail("document node " + std::to_string(r) +
                  " must cover its tree");
    }
  }
  size_t tree = 0;  // index into starts of the next tree to begin
  for (Pre v = 0; v < n; ++v) {
    if (v + size_[v] > n - 1) {
      return fail("subtree of node " + std::to_string(v) +
                  " exceeds document");
    }
    bool starts_tree = tree < starts.size() && starts[tree] == v;
    if (starts_tree) ++tree;
    if (level_[v] == 0 && !starts_tree) {
      return fail("only a tree's document node may be at level 0");
    }
    if (IsAttr(v) && size_[v] != 0) {
      return fail("attribute " + std::to_string(v) + " has nonzero size");
    }
    if (v > 0 && level_[v] > level_[v - 1] + 1) {
      return fail("level jump at node " + std::to_string(v));
    }
  }
  // Subtrees must nest. One pass with a stack of open subtrees: when we
  // reach node w, every subtree that ended before w must have been
  // popped, w's level must be exactly (#open subtrees), and w must end
  // no later than the innermost open subtree.
  std::vector<Pre> open_ends;  // exclusive end (last pre) per open subtree
  for (Pre v = 0; v < n; ++v) {
    while (!open_ends.empty() && open_ends.back() < v) open_ends.pop_back();
    if (level_[v] != open_ends.size()) {
      return fail("node " + std::to_string(v) + " level " +
                  std::to_string(level_[v]) + " != nesting depth " +
                  std::to_string(open_ends.size()));
    }
    Pre end = v + size_[v];
    if (!open_ends.empty() && end > open_ends.back()) {
      return fail("subtree of " + std::to_string(v) +
                  " overflows its parent");
    }
    open_ends.push_back(end);
  }
  return true;
}

}  // namespace pathfinder::xml
