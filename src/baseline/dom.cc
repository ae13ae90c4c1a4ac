#include "baseline/dom.h"

#include <algorithm>

namespace pathfinder::baseline {

using accel::Axis;
using accel::NodeTest;
using xml::NodeKind;
using xml::Pre;

Dom::Dom(const xml::Document& doc) {
  Pre n = doc.num_nodes();
  nodes_.resize(n);
  std::vector<DomNode*> stack;
  for (Pre v = 0; v < n; ++v) {
    DomNode& node = nodes_[v];
    node.kind = doc.kind(v);
    node.name = doc.prop(v);
    node.value = doc.value(v);
    node.pre = v;
    while (!stack.empty() &&
           stack.back()->pre + doc.size(stack.back()->pre) < v) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      node.parent = stack.back();
      if (node.kind == NodeKind::kAttr) {
        stack.back()->attrs.push_back(&node);
      } else {
        stack.back()->children.push_back(&node);
      }
    }
    if (node.kind == NodeKind::kDoc || node.kind == NodeKind::kElem) {
      stack.push_back(&node);
    }
  }
}

bool DomMatches(const DomNode& n, Axis axis, const NodeTest& test) {
  if (axis == Axis::kAttribute) {
    if (n.kind != NodeKind::kAttr) return false;
    switch (test.kind) {
      case NodeTest::Kind::kAnyKind:
      case NodeTest::Kind::kElement:
        return true;
      case NodeTest::Kind::kName:
        return n.name == test.name;
      default:
        return false;
    }
  }
  if (n.kind == NodeKind::kAttr) return false;
  switch (test.kind) {
    case NodeTest::Kind::kAnyKind:
      return true;
    case NodeTest::Kind::kElement:
      return n.kind == NodeKind::kElem;
    case NodeTest::Kind::kText:
      return n.kind == NodeKind::kText;
    case NodeTest::Kind::kComment:
      return n.kind == NodeKind::kComment;
    case NodeTest::Kind::kPi:
      return n.kind == NodeKind::kPi;
    case NodeTest::Kind::kName:
      return n.kind == NodeKind::kElem && n.name == test.name;
  }
  return false;
}

namespace {

void EmitDescendants(DomNode* n, Axis axis, const NodeTest& test,
                     std::vector<DomNode*>* out) {
  for (DomNode* c : n->children) {
    if (DomMatches(*c, axis, test)) out->push_back(c);
    EmitDescendants(c, axis, test, out);
  }
}

/// Emit a whole subtree (self + descendants) in document order.
void EmitSubtree(DomNode* n, Axis axis, const NodeTest& test,
                 std::vector<DomNode*>* out) {
  if (DomMatches(*n, axis, test)) out->push_back(n);
  EmitDescendants(n, axis, test, out);
}

}  // namespace

void DomStep(DomNode* ctx, Axis axis, const NodeTest& test,
             std::vector<DomNode*>* out) {
  switch (axis) {
    case Axis::kSelf:
      if (ctx->kind == NodeKind::kAttr) {
        if (test.kind == NodeTest::Kind::kAnyKind) out->push_back(ctx);
      } else if (DomMatches(*ctx, axis, test)) {
        out->push_back(ctx);
      }
      return;
    case Axis::kAttribute:
      for (DomNode* a : ctx->attrs) {
        if (DomMatches(*a, axis, test)) out->push_back(a);
      }
      return;
    case Axis::kChild:
      for (DomNode* c : ctx->children) {
        if (DomMatches(*c, axis, test)) out->push_back(c);
      }
      return;
    case Axis::kDescendant:
      EmitDescendants(ctx, axis, test, out);
      return;
    case Axis::kDescendantOrSelf:
      EmitSubtree(ctx, axis, test, out);
      return;
    case Axis::kParent:
      if (ctx->parent && DomMatches(*ctx->parent, axis, test)) {
        out->push_back(ctx->parent);
      }
      return;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      std::vector<DomNode*> chain;
      if (axis == Axis::kAncestorOrSelf && DomMatches(*ctx, axis, test)) {
        chain.push_back(ctx);
      }
      for (DomNode* a = ctx->parent; a != nullptr; a = a->parent) {
        if (DomMatches(*a, axis, test)) chain.push_back(a);
      }
      out->insert(out->end(), chain.rbegin(), chain.rend());
      return;
    }
    case Axis::kFollowingSibling: {
      if (ctx->kind == NodeKind::kAttr || !ctx->parent) return;
      const auto& sibs = ctx->parent->children;
      auto it = std::find(sibs.begin(), sibs.end(), ctx);
      if (it == sibs.end()) return;
      for (++it; it != sibs.end(); ++it) {
        if (DomMatches(**it, axis, test)) out->push_back(*it);
      }
      return;
    }
    case Axis::kPrecedingSibling: {
      if (ctx->kind == NodeKind::kAttr || !ctx->parent) return;
      for (DomNode* s : ctx->parent->children) {
        if (s == ctx) break;
        if (DomMatches(*s, axis, test)) out->push_back(s);
      }
      return;
    }
    case Axis::kFollowing: {
      // Everything after this subtree: for each ancestor, the subtrees
      // of its later siblings. An element's children follow its
      // attributes, so an attribute's owner's descendants come first.
      DomNode* cur = ctx;
      if (ctx->kind == NodeKind::kAttr) {
        cur = ctx->parent;
        if (cur) EmitDescendants(cur, axis, test, out);
      }
      while (cur && cur->parent) {
        const auto& sibs = cur->parent->children;
        auto it = std::find(sibs.begin(), sibs.end(), cur);
        if (it != sibs.end()) {
          for (++it; it != sibs.end(); ++it) {
            EmitSubtree(*it, axis, test, out);
          }
        }
        cur = cur->parent;
      }
      return;
    }
    case Axis::kPreceding: {
      // Subtrees of earlier siblings of each ancestor-or-self, emitted
      // root-side first to keep document order.
      std::vector<DomNode*> line;
      for (DomNode* a = ctx->kind == NodeKind::kAttr ? ctx->parent : ctx;
           a != nullptr; a = a->parent) {
        line.push_back(a);
      }
      for (auto it = line.rbegin(); it != line.rend(); ++it) {
        DomNode* a = *it;
        if (!a->parent) continue;
        for (DomNode* s : a->parent->children) {
          if (s == a) break;
          EmitSubtree(s, axis, test, out);
        }
      }
      return;
    }
  }
}

std::string DomStringValue(const DomNode* n, const StringPool& pool) {
  switch (n->kind) {
    case NodeKind::kAttr:
    case NodeKind::kText:
    case NodeKind::kComment:
    case NodeKind::kPi:
      return std::string(pool.Get(n->value));
    default: {
      std::string out;
      for (const DomNode* c : n->children) {
        if (c->kind == NodeKind::kText) {
          out += pool.Get(c->value);
        } else if (c->kind == NodeKind::kElem) {
          out += DomStringValue(c, pool);
        }
      }
      return out;
    }
  }
}

}  // namespace pathfinder::baseline
