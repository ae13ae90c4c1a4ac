#include "bat/col_id.h"

#include "base/string_pool.h"

namespace pathfinder::bat {

namespace {

StringPool& Dictionary() {
  static StringPool* dict = [] {
    auto* p = new StringPool();
    // Must match the constants in col_id.h.
    for (std::string_view n : {"iter", "pos", "item", "inner", "outer"}) {
      p->Intern(n);
    }
    return p;
  }();
  return *dict;
}

}  // namespace

ColId InternCol(std::string_view name) { return Dictionary().Intern(name); }

std::vector<ColId> InternCols(std::initializer_list<std::string_view> names) {
  std::vector<ColId> ids;
  ids.reserve(names.size());
  for (std::string_view n : names) ids.push_back(InternCol(n));
  return ids;
}

std::string_view ColName(ColId id) {
  if (id == kNoCol) return {};
  return Dictionary().Get(id);
}

}  // namespace pathfinder::bat
