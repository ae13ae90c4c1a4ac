#include "engine/node_build.h"

#include <string>

#include "bat/item_ops.h"
#include "xml/tree_builder.h"

namespace pathfinder::engine {

using xml::Document;
using xml::NodeKind;
using xml::Pre;
using xml::TreeBuilder;

Result<Item> BuildElement(QueryContext* ctx, StrId name,
                          const std::vector<Item>& items) {
  StringPool* pool = ctx->pool();
  TreeBuilder b(pool);
  b.StartElem(name);

  // Attributes first (attribute items are hoisted regardless of their
  // position in the content sequence).
  for (const Item& it : items) {
    if (it.kind != ItemKind::kAttr) continue;
    const Document& d = ctx->doc(it.NodeFrag());
    Pre v = it.NodePre();
    b.Attr(d.prop(v), d.value(v));
  }

  // A run of adjacent atomics becomes one text node. A run of one keeps
  // its surrogate; longer runs are joined with single spaces (XQuery
  // content construction rules) and interned once.
  StrId run_first = 0;
  size_t run_len = 0;
  std::string joined;
  auto flush_atomics = [&]() {
    if (run_len == 0) return;
    b.Text(run_len == 1 ? run_first : pool->Intern(joined));
    run_len = 0;
  };

  for (const Item& it : items) {
    if (it.kind == ItemKind::kAttr) continue;
    if (it.kind == ItemKind::kNode) {
      flush_atomics();
      b.CopySubtree(ctx->doc(it.NodeFrag()), it.NodePre());
      continue;
    }
    PF_ASSIGN_OR_RETURN(StrId s, bat::ItemToString(it, pool));
    if (run_len == 0) {
      run_first = s;
    } else {
      if (run_len == 1) joined.assign(pool->Get(run_first));
      joined += ' ';
      joined += pool->Get(s);
    }
    ++run_len;
  }
  flush_atomics();

  b.EndElem();
  PF_ASSIGN_OR_RETURN(Document doc, std::move(b).Finish());
  xml::FragId frag = ctx->AddFragment(std::move(doc));
  return Item::Node(frag, 1);  // the element sits at pre 1
}

Item BuildText(QueryContext* ctx, StrId content) {
  TreeBuilder b(ctx->pool());
  // A wrapper element keeps the TreeBuilder invariants; the text node
  // itself is at pre 2 and is what the item references.
  b.StartElem("fs:text-wrapper");
  b.Text(content);
  b.EndElem();
  Document doc = std::move(b).Finish().value();
  xml::FragId frag = ctx->AddFragment(std::move(doc));
  return Item::Node(frag, 2);
}

Item BuildAttribute(QueryContext* ctx, StrId name, StrId value) {
  TreeBuilder b(ctx->pool());
  b.StartElem("fs:attr-wrapper");
  b.Attr(name, value);
  b.EndElem();
  Document doc = std::move(b).Finish().value();
  xml::FragId frag = ctx->AddFragment(std::move(doc));
  return Item::Attr(frag, 2);
}

StrId NodeStringId(QueryContext* ctx, const Item& node) {
  const Document& d = ctx->doc(node.NodeFrag());
  Pre v = node.NodePre();
  NodeKind k = d.kind(v);
  if (k != NodeKind::kElem && k != NodeKind::kDoc) return d.value(v);
  // An element or document whose only text descendant is one stored
  // text node has that node's content as its string value.
  const std::vector<uint8_t>& kinds = d.kinds();
  const auto text = static_cast<uint8_t>(NodeKind::kText);
  Pre end = v + d.size(v);
  Pre only = 0;
  int texts = 0;
  for (Pre p = v + 1; p <= end && texts < 2; ++p) {
    if (kinds[p] == text && texts++ == 0) only = p;
  }
  if (texts == 1) return d.value(only);
  return ctx->pool()->Intern(d.StringValue(v, *ctx->pool()));
}

}  // namespace pathfinder::engine
