#include "xml/path_summary.h"

#include <algorithm>
#include <set>

#include "xml/document.h"

namespace pathfinder::xml {

namespace {

// Find-or-create the child path of `parent` with the given label. Fan-out
// per path node is small (distinct child labels of one parent label), so
// a linear probe over the children vector beats a side map.
int32_t ChildPath(std::vector<PathNode>* nodes, int32_t parent, StrId tag,
                  bool is_attr) {
  PathNode& p = (*nodes)[static_cast<size_t>(parent)];
  for (int32_t c : p.children) {
    const PathNode& cn = (*nodes)[static_cast<size_t>(c)];
    if (cn.tag == tag && cn.is_attr == is_attr) return c;
  }
  int32_t id = static_cast<int32_t>(nodes->size());
  PathNode n;
  n.tag = tag;
  n.parent = parent;
  n.level = static_cast<uint16_t>(p.level + 1);
  n.is_attr = is_attr;
  nodes->push_back(std::move(n));
  (*nodes)[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

}  // namespace

PathSummary BuildPathSummary(const Document& doc) {
  PathSummary s;
  const auto& levels = doc.levels();
  const auto& kinds = doc.kinds();
  const auto& props = doc.props();
  const Pre n = doc.num_nodes();

  // Path 0 = the document node. Shredded documents always start with
  // the kDoc row; synthesize the root path up front so a (malformed)
  // headless fragment still yields a well-formed trie.
  s.nodes_.push_back(PathNode{});
  s.nodes_[0].count = 0;

  // Stack of open path ids, one per ancestor of the current node; -1
  // frames cover malformed non-element rows that claim a subtree (the
  // encoding never produces them, mirrored from ComputeDocStats'
  // inert frames).
  std::vector<int32_t> stack;
  // Pre list per path, flattened into part_ afterwards.
  std::vector<std::vector<Pre>> pres;
  pres.emplace_back();  // path 0 slot, stays empty

  for (Pre v = 0; v < n; ++v) {
    uint16_t level = levels[v];
    while (stack.size() > level) stack.pop_back();
    int32_t top = stack.empty() ? -1 : stack.back();
    NodeKind kind = static_cast<NodeKind>(kinds[v]);
    switch (kind) {
      case NodeKind::kDoc:
        s.nodes_[0].count++;
        stack.push_back(0);
        continue;
      case NodeKind::kElem: {
        int32_t id = top < 0 ? ChildPath(&s.nodes_, 0, props[v], false)
                             : ChildPath(&s.nodes_, top, props[v], false);
        if (static_cast<size_t>(id) >= pres.size()) pres.resize(id + 1);
        s.nodes_[static_cast<size_t>(id)].count++;
        pres[static_cast<size_t>(id)].push_back(v);
        stack.push_back(id);
        continue;
      }
      case NodeKind::kAttr: {
        if (top < 0) break;
        int32_t id = ChildPath(&s.nodes_, top, props[v], true);
        if (static_cast<size_t>(id) >= pres.size()) pres.resize(id + 1);
        s.nodes_[static_cast<size_t>(id)].count++;
        pres[static_cast<size_t>(id)].push_back(v);
        break;
      }
      case NodeKind::kText:
      case NodeKind::kComment:
      case NodeKind::kPi:
        break;
    }
    if (doc.size(v) > 0) stack.push_back(-1);  // robustness frame
  }

  // Flatten the per-path pre lists into the contiguous partition store
  // (each list is already in document order — one ascending shred pass).
  if (pres.size() < s.nodes_.size()) pres.resize(s.nodes_.size());
  size_t total = 0;
  for (const auto& p : pres) total += p.size();
  s.part_.reserve(total);
  for (size_t id = 0; id < s.nodes_.size(); ++id) {
    s.nodes_[id].part_begin = s.part_.size();
    s.part_.insert(s.part_.end(), pres[id].begin(), pres[id].end());
  }

  // Tag / attribute-name indexes for the staircase pruning path.
  for (size_t id = 1; id < s.nodes_.size(); ++id) {
    const PathNode& p = s.nodes_[id];
    if (p.is_attr) {
      s.attr_by_name_[p.tag].push_back(static_cast<int32_t>(id));
    } else {
      s.elem_by_tag_[p.tag].push_back(static_cast<int32_t>(id));
      s.num_element_paths_++;
    }
  }
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
