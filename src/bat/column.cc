#include "bat/column.h"

namespace pathfinder::bat {

const char* ColTypeName(ColType t) {
  switch (t) {
    case ColType::kInt:
      return "int";
    case ColType::kDbl:
      return "dbl";
    case ColType::kStr:
      return "str";
    case ColType::kBool:
      return "bool";
    case ColType::kItem:
      return "item";
  }
  return "?";
}

std::shared_ptr<Column> Column::MakeInt(size_t reserve) {
  auto c = std::make_shared<Column>(ColType::kInt);
  c->ints_.reserve(reserve);
  return c;
}
std::shared_ptr<Column> Column::MakeDbl(size_t reserve) {
  auto c = std::make_shared<Column>(ColType::kDbl);
  c->dbls_.reserve(reserve);
  return c;
}
std::shared_ptr<Column> Column::MakeStr(size_t reserve) {
  auto c = std::make_shared<Column>(ColType::kStr);
  c->strs_.reserve(reserve);
  return c;
}
std::shared_ptr<Column> Column::MakeBool(size_t reserve) {
  auto c = std::make_shared<Column>(ColType::kBool);
  c->bools_.reserve(reserve);
  return c;
}
std::shared_ptr<Column> Column::MakeItem(size_t reserve) {
  auto c = std::make_shared<Column>(ColType::kItem);
  c->items_.reserve(reserve);
  return c;
}

void Column::Append(const Column& src) {
  Visit(
      type_,
      [](auto& dst, const auto& from) {
        dst.insert(dst.end(), from.begin(), from.end());
      },
      *this, src);
}

size_t Column::size() const {
  return Visit(type_, [](const auto& v) { return v.size(); }, *this);
}

size_t Column::ByteSize() const {
  return Visit(
      type_, [](const auto& v) { return v.size() * sizeof(v[0]); }, *this);
}

size_t Column::AllocBytes() const {
  return sizeof(Column) + ints_.capacity() * sizeof(int64_t) +
         dbls_.capacity() * sizeof(double) + strs_.capacity() * sizeof(StrId) +
         bools_.capacity() * sizeof(uint8_t) +
         items_.capacity() * sizeof(Item);
}

}  // namespace pathfinder::bat
