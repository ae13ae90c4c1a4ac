#include "engine/node_build.h"

#include <string>

#include "bat/item_ops.h"
#include "xml/tree_builder.h"

namespace pathfinder::engine {

using xml::Document;
using xml::NodeKind;
using xml::Pre;
using xml::TreeBuilder;

Pre ForestBuilder::StartTree() {
  if (!b_) {
    // The builder opens the first tree at pre 0.
    b_.emplace(ctx_->pool());
    frag_ = ctx_->ReserveFragment();
    return 0;
  }
  return b_->NextTree();
}

Result<Item> ForestBuilder::Element(StrId name, std::span<const Item> items) {
  StringPool* pool = ctx_->pool();
  const Pre elem = StartTree() + 1;
  TreeBuilder& b = *b_;
  b.StartElem(name);

  // Attributes first (attribute items are hoisted regardless of their
  // position in the content sequence).
  for (const Item& it : items) {
    if (it.kind != ItemKind::kAttr) continue;
    const Document& d = ctx_->doc(it.NodeFrag());
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
      b.CopySubtree(ctx_->doc(it.NodeFrag()), it.NodePre());
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
  return Item::Node(frag_, elem);
}

Item ForestBuilder::Text(StrId content) {
  if (!text_wrapper_) {
    text_wrapper_ = ctx_->pool()->Intern("fs:text-wrapper");
  }
  // A wrapper element gives the text node a parent, as the tree's only
  // element; the item references the text node below it.
  const Pre text = StartTree() + 2;
  b_->StartElem(*text_wrapper_);
  b_->Text(content);
  b_->EndElem();
  return Item::Node(frag_, text);
}

Item ForestBuilder::Attribute(StrId name, StrId value) {
  if (!attr_wrapper_) {
    attr_wrapper_ = ctx_->pool()->Intern("fs:attr-wrapper");
  }
  const Pre attr = StartTree() + 2;
  b_->StartElem(*attr_wrapper_);
  b_->Attr(name, value);
  b_->EndElem();
  return Item::Attr(frag_, attr);
}

int64_t ForestBuilder::bytes() const {
  return b_ ? static_cast<int64_t>(b_->num_nodes() * Document::kNodeBytes)
            : 0;
}

void ForestBuilder::Finish() {
  if (!b_) return;
  // Every tree holds its element or wrapper, so closing cannot fail.
  ctx_->FillFragment(frag_, std::move(*b_).Finish().value());
  b_.reset();
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
