#include "baseline/node_build.h"

#include "bat/item_ops.h"
#include "xml/tree_builder.h"

namespace pathfinder::baseline {

using engine::QueryContext;
using xml::Document;
using xml::NodeKind;
using xml::Pre;
using xml::TreeBuilder;

namespace {

/// Copy the subtree of `src` rooted at `v` into `builder` one node at a
/// time, reading each name and content out of `pool` as a string and
/// handing it to the builder, which interns it again.
void CopyRec(const Document& src, Pre v, const StringPool& pool,
             TreeBuilder* builder) {
  switch (src.kind(v)) {
    case NodeKind::kDoc: {
      // Document nodes are transparent: copy their children.
      Pre end = v + src.size(v);
      Pre w = v + 1;
      while (w <= end) {
        CopyRec(src, w, pool, builder);
        w += src.size(w) + 1;
      }
      return;
    }
    case NodeKind::kElem: {
      builder->StartElem(pool.Get(src.prop(v)));
      Pre end = v + src.size(v);
      Pre w = v + 1;
      while (w <= end) {
        CopyRec(src, w, pool, builder);
        w += src.size(w) + 1;
      }
      builder->EndElem();
      return;
    }
    case NodeKind::kAttr:
      builder->Attr(pool.Get(src.prop(v)), pool.Get(src.value(v)));
      return;
    case NodeKind::kText:
      builder->Text(pool.Get(src.value(v)));
      return;
    case NodeKind::kComment:
      builder->Comment(pool.Get(src.value(v)));
      return;
    case NodeKind::kPi:
      builder->Pi(pool.Get(src.prop(v)), pool.Get(src.value(v)));
      return;
  }
}

}  // namespace

Result<Item> BuildElement(QueryContext* ctx, const std::string& name,
                          const std::vector<Item>& items) {
  const StringPool& pool = *ctx->pool();
  TreeBuilder b(ctx->pool());
  b.StartElem(name);

  // Attributes first (attribute items are hoisted regardless of their
  // position in the content sequence).
  for (const Item& it : items) {
    if (it.kind != ItemKind::kAttr) continue;
    const Document& d = ctx->doc(it.NodeFrag());
    Pre v = it.NodePre();
    b.Attr(pool.Get(d.prop(v)), pool.Get(d.value(v)));
  }

  std::string atomic_run;
  bool have_atomic = false;
  auto flush_atomics = [&]() {
    if (have_atomic) {
      b.Text(atomic_run);
      atomic_run.clear();
      have_atomic = false;
    }
  };

  for (const Item& it : items) {
    if (it.kind == ItemKind::kAttr) continue;
    if (it.kind == ItemKind::kNode) {
      flush_atomics();
      CopyRec(ctx->doc(it.NodeFrag()), it.NodePre(), pool, &b);
      continue;
    }
    // Atomic: adjacent atomics join with a single space into one text
    // node (XQuery content construction rules).
    PF_ASSIGN_OR_RETURN(StrId s, bat::ItemToString(it, ctx->pool()));
    if (have_atomic) atomic_run += ' ';
    atomic_run += ctx->pool()->Get(s);
    have_atomic = true;
  }
  flush_atomics();

  b.EndElem();
  PF_ASSIGN_OR_RETURN(Document doc, std::move(b).Finish());
  xml::FragId frag = ctx->AddFragment(std::move(doc));
  return Item::Node(frag, 1);  // the element sits at pre 1
}

Item BuildText(QueryContext* ctx, const std::string& content) {
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

Item BuildAttribute(QueryContext* ctx, const std::string& name,
                    const std::string& value) {
  TreeBuilder b(ctx->pool());
  b.StartElem("fs:attr-wrapper");
  b.Attr(name, value);
  b.EndElem();
  Document doc = std::move(b).Finish().value();
  xml::FragId frag = ctx->AddFragment(std::move(doc));
  return Item::Attr(frag, 2);
}

}  // namespace pathfinder::baseline
