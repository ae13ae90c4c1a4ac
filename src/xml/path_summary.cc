#include "xml/path_summary.h"

#include <algorithm>
#include <set>

#include "xml/document.h"

namespace pathfinder::xml {

int32_t PathSummary::FindChildPath(int32_t parent, StrId tag,
                                   bool is_attr) const {
  // A path node has few children (distinct child labels of one parent
  // label), so a linear probe over the children vector beats a side map.
  for (int32_t c : nodes_[static_cast<size_t>(parent)].children) {
    const PathNode& cn = nodes_[static_cast<size_t>(c)];
    if (cn.tag == tag && cn.is_attr == is_attr) return c;
  }
  return -1;
}

void PathSummary::AddRows(const Document& doc, Pre begin, Pre end,
                          int32_t under_path, Pre under_pre,
                          std::vector<std::vector<Pre>>* pres) {
  auto child_path = [&](int32_t parent, StrId tag, bool is_attr) {
    int32_t id = FindChildPath(parent, tag, is_attr);
    if (id >= 0) return id;
    id = static_cast<int32_t>(nodes_.size());
    PathNode n;
    n.tag = tag;
    n.parent = parent;
    n.level = static_cast<uint16_t>(
        nodes_[static_cast<size_t>(parent)].level + 1);
    n.is_attr = is_attr;
    nodes_.push_back(std::move(n));
    nodes_[static_cast<size_t>(parent)].children.push_back(id);
    return id;
  };
  auto add = [&](int32_t id, Pre v) {
    size_t i = static_cast<size_t>(id);
    if (i >= pres->size()) pres->resize(i + 1);
    (*pres)[i].push_back(v);
    nodes_[i].count++;
  };

  // The path of each open ancestor of the current row, popped by level.
  // A malformed non-element row that claims a subtree (the encoding
  // never produces one) opens a -1 frame: an element below it hangs off
  // path 0, an attribute below it joins no path.
  std::vector<int32_t> stack;
  uint16_t base_level = 0;
  if (under_path >= 0) {
    stack.push_back(under_path);
    base_level = doc.level(under_pre);
  }
  for (Pre v = begin; v < end; ++v) {
    size_t depth = static_cast<size_t>(doc.level(v) - base_level);
    while (stack.size() > depth) stack.pop_back();
    const int32_t top = stack.empty() ? -1 : stack.back();
    switch (doc.kind(v)) {
      case NodeKind::kDoc:
        nodes_[0].count++;
        stack.push_back(0);
        continue;
      case NodeKind::kElem: {
        // An element outside any element frame hangs off path 0.
        int32_t id = child_path(top >= 0 ? top : 0, doc.prop(v), false);
        add(id, v);
        stack.push_back(id);
        continue;
      }
      case NodeKind::kAttr:
        if (top < 0) break;
        add(child_path(top, doc.prop(v), true), v);
        break;
      case NodeKind::kText:
      case NodeKind::kComment:
      case NodeKind::kPi:
        break;
    }
    if (doc.size(v) > 0) stack.push_back(-1);  // robustness frame
  }
}

void PathSummary::IndexPaths(size_t from) {
  // Ids only grow, so push_back keeps the by-tag lists sorted.
  for (size_t id = from; id < nodes_.size(); ++id) {
    const PathNode& p = nodes_[id];
    if (p.is_attr) continue;
    elem_by_tag_[p.tag].push_back(static_cast<int32_t>(id));
    num_element_paths_++;
  }
}

PathSummary BuildPathSummary(const Document& doc) {
  PathSummary s;
  // Path 0 = the document node. Shredded documents always start with
  // the kDoc row; synthesize the root path up front so a (malformed)
  // headless fragment still yields a well-formed trie.
  s.nodes_.push_back(PathNode{});
  // Pre list per path (path 0's stays empty), flattened into part_.
  std::vector<std::vector<Pre>> pres(1);
  s.AddRows(doc, 0, doc.num_nodes(), -1, 0, &pres);

  // Each list is already in document order (one ascending pass).
  pres.resize(s.nodes_.size());
  size_t total = 0;
  for (const auto& p : pres) total += p.size();
  s.part_.reserve(total);
  for (size_t id = 0; id < s.nodes_.size(); ++id) {
    s.nodes_[id].part_begin = s.part_.size();
    s.part_.insert(s.part_.end(), pres[id].begin(), pres[id].end());
  }
  s.IndexPaths(1);
  return s;
}

void PathSummary::ResolveStep(StepAxis axis, StepTest test, StrId name,
                              const std::vector<int32_t>& in,
                              std::vector<int32_t>* out) const {
  out->clear();
  auto elem_matches = [&](int32_t id) {
    const PathNode& p = nodes_[static_cast<size_t>(id)];
    if (p.is_attr) return false;
    switch (test) {
      case StepTest::kName:
        return id != 0 && p.tag == name;
      case StepTest::kElement:
        return id != 0;
      case StepTest::kAnyNode:
        return true;  // the document node is a node()
    }
    return false;
  };
  std::set<int32_t> res;
  switch (axis) {
    case StepAxis::kSelf:
      for (int32_t id : in) {
        if (elem_matches(id)) res.insert(id);
      }
      break;
    case StepAxis::kAttribute:
      for (int32_t id : in) {
        const PathNode& p = nodes_[static_cast<size_t>(id)];
        if (p.is_attr) continue;
        for (int32_t c : p.children) {
          const PathNode& cn = nodes_[static_cast<size_t>(c)];
          if (!cn.is_attr) continue;
          if (test == StepTest::kName && cn.tag != name) continue;
          res.insert(c);
        }
      }
      break;
    case StepAxis::kChild:
      for (int32_t id : in) {
        const PathNode& p = nodes_[static_cast<size_t>(id)];
        if (p.is_attr) continue;
        for (int32_t c : p.children) {
          if (nodes_[static_cast<size_t>(c)].is_attr) continue;
          if (elem_matches(c)) res.insert(c);
        }
      }
      break;
    case StepAxis::kDescendant:
    case StepAxis::kDescendantOrSelf: {
      // DFS through element children; attributes are not on the
      // descendant axis.
      std::vector<int32_t> work;
      std::set<int32_t> seen;
      for (int32_t id : in) {
        if (nodes_[static_cast<size_t>(id)].is_attr) continue;
        if (axis == StepAxis::kDescendantOrSelf && elem_matches(id)) {
          res.insert(id);
        }
        work.push_back(id);
      }
      while (!work.empty()) {
        int32_t id = work.back();
        work.pop_back();
        if (!seen.insert(id).second) continue;
        for (int32_t c : nodes_[static_cast<size_t>(id)].children) {
          if (nodes_[static_cast<size_t>(c)].is_attr) continue;
          if (elem_matches(c)) res.insert(c);
          work.push_back(c);
        }
      }
      break;
    }
  }
  out->assign(res.begin(), res.end());
}

size_t PathSummary::GatherPartitions(const std::vector<int32_t>& paths,
                                     Pre lo, Pre hi,
                                     std::vector<Pre>* out) const {
  size_t start = out->size();
  // Collect the in-range sub-slices (binary search per partition), then
  // merge. With one contributing path this is a straight copy; the
  // k-way case sorts the concatenation (k is the number of *paths* with
  // the tag — single digits in practice — and partitions are disjoint,
  // so the result is duplicate-free by construction).
  size_t contributing = 0;
  for (int32_t id : paths) {
    size_t len;
    const Pre* p = partition(id, &len);
    const Pre* b = std::lower_bound(p, p + len, lo);
    const Pre* e = std::upper_bound(b, p + len, hi);
    if (b == e) continue;
    ++contributing;
    out->insert(out->end(), b, e);
  }
  if (contributing > 1) {
    std::sort(out->begin() + static_cast<ptrdiff_t>(start), out->end());
  }
  return out->size() - start;
}

size_t PathSummary::MemoryBytes() const {
  size_t b = nodes_.capacity() * sizeof(PathNode) +
             part_.capacity() * sizeof(Pre);
  for (const auto& n : nodes_) b += n.children.capacity() * sizeof(int32_t);
  return b;
}

}  // namespace pathfinder::xml
