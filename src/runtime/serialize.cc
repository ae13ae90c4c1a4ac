#include "runtime/serialize.h"

#include "bat/item_ops.h"
#include "xml/serializer.h"

namespace pathfinder::runtime {

Result<std::vector<Item>> TableToSequence(const bat::Table& t) {
  PF_ASSIGN_OR_RETURN(bat::ColumnPtr item, t.GetCol(bat::kItem));
  return std::vector<Item>(item->items());
}

namespace {

Status AppendItem(const engine::QueryContext& ctx, const Item& item,
                  std::string* out) {
  if (item.IsNode()) {
    xml::AppendSubtree(ctx.doc(item.NodeFrag()), item.NodePre(), ctx.pool(),
                       out);
    return Status::OK();
  }
  // Atomics: lexical form. ItemToString interns, so we need a mutable
  // pool; go through the non-const context the engine owns.
  auto* mctx = const_cast<engine::QueryContext*>(&ctx);
  PF_ASSIGN_OR_RETURN(StrId s, bat::ItemToString(item, mctx->pool()));
  *out += ctx.pool().Get(s);
  return Status::OK();
}

}  // namespace

Result<std::string> SerializeItem(const engine::QueryContext& ctx,
                                  const Item& item) {
  std::string out;
  PF_RETURN_NOT_OK(AppendItem(ctx, item, &out));
  return out;
}

Result<std::string> SerializeSequence(const engine::QueryContext& ctx,
                                      const std::vector<Item>& items) {
  std::string out;
  bool prev_atomic = false;
  for (const Item& it : items) {
    bool atomic = !it.IsNode();
    if (atomic && prev_atomic) out += ' ';
    PF_RETURN_NOT_OK(AppendItem(ctx, it, &out));
    prev_atomic = atomic;
  }
  return out;
}

}  // namespace pathfinder::runtime
