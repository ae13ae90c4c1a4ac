#include "xml/stats.h"

#include <algorithm>
#include <vector>

#include "xml/document.h"

namespace pathfinder::xml {

void ChildCounts::Add(NodeKind kind, StrId prop) {
  switch (kind) {
    case NodeKind::kElem:
      elems[prop]++;
      break;
    case NodeKind::kAttr:
      attrs[prop]++;
      break;
    case NodeKind::kText:
      texts++;
      break;
    default:
      break;
  }
}

void DocStats::Merge(const ChildCounts& c) {
  for (const auto& [tag, n] : c.elems) {
    uint32_t& mx = max_children[tag];
    mx = std::max(mx, n);
  }
  for (const auto& [name, n] : c.attrs) {
    uint32_t& mx = max_per_owner[name];
    mx = std::max(mx, n);
  }
  max_text_children = std::max(max_text_children, c.texts);
}

DocStats ComputeDocStats(const Document& doc) {
  DocStats s;
  const auto& levels = doc.levels();
  const auto& kinds = doc.kinds();
  const auto& sizes = doc.sizes();
  const auto& props = doc.props();
  const Pre n = doc.num_nodes();

  // One open frame per ancestor of the current node. The document node
  // and elements count their direct children; a malformed node of any
  // other kind that claims a subtree (the encoding never produces one)
  // gets an inert frame so the level-driven pop stays aligned.
  // Attributes sit at level(owner)+1 like child nodes do, so they count
  // against the owner frame but, being size 0, never push one.
  struct Frame {
    bool counts = false;
    ChildCounts children;
  };
  std::vector<Frame> stack;
  auto pop = [&] {
    if (stack.back().counts) s.Merge(stack.back().children);
    stack.pop_back();
  };
  for (Pre v = 0; v < n; ++v) {
    while (stack.size() > levels[v]) pop();
    NodeKind kind = static_cast<NodeKind>(kinds[v]);
    if (!stack.empty() && stack.back().counts) {
      stack.back().children.Add(kind, props[v]);
    }
    bool counts = kind == NodeKind::kDoc || kind == NodeKind::kElem;
    if (counts || sizes[v] > 0) stack.push_back({counts, {}});
  }
  while (!stack.empty()) pop();
  return s;
}

}  // namespace pathfinder::xml
