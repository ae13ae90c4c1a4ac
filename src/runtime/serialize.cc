#include "runtime/serialize.h"

#include "bat/item_ops.h"
#include "xml/serializer.h"

namespace pathfinder::runtime {

Result<std::vector<Item>> TableToSequence(const bat::Table& t) {
  PF_ASSIGN_OR_RETURN(bat::ColumnPtr item, t.GetCol(bat::kItem));
  return std::vector<Item>(item->items());
}

Result<std::string> SerializeItem(const engine::QueryContext& ctx,
                                  const Item& item) {
  if (item.IsNode()) {
    const xml::Document& d = ctx.doc(item.NodeFrag());
    return xml::SerializeSubtree(d, item.NodePre(), ctx.pool());
  }
  // Atomics: lexical form. ItemToString interns, so we need a mutable
  // pool; go through the non-const context the engine owns.
  auto* mctx = const_cast<engine::QueryContext*>(&ctx);
  PF_ASSIGN_OR_RETURN(StrId s, bat::ItemToString(item, mctx->pool()));
  return std::string(ctx.pool().Get(s));
}

Result<std::string> SerializeSequence(const engine::QueryContext& ctx,
                                      const std::vector<Item>& items) {
  std::string out;
  bool prev_atomic = false;
  for (const Item& it : items) {
    bool atomic = !it.IsNode();
    if (atomic && prev_atomic) out += ' ';
    PF_ASSIGN_OR_RETURN(std::string s, SerializeItem(ctx, it));
    out += s;
    prev_atomic = atomic;
  }
  return out;
}

}  // namespace pathfinder::runtime
