#include "bat/table.h"

#include <cassert>
#include <sstream>

namespace pathfinder::bat {

Result<ColumnPtr> Table::GetCol(ColId name) const {
  int i = FindCol(name);
  if (i < 0) {
    return Status::Internal("table has no column '" +
                            std::string(ColName(name)) + "'");
  }
  return cols_[static_cast<size_t>(i)];
}

void Table::AddCol(ColId name, ColumnPtr col) {
  assert(col != nullptr);
  if (!has_rows_set_) {
    rows_ = col->size();
    has_rows_set_ = true;
  } else {
    assert(col->size() == rows_ && "column length mismatch");
  }
  names_.push_back(name);
  cols_.push_back(std::move(col));
}

size_t Table::ByteSize() const {
  size_t total = 0;
  for (const auto& c : cols_) total += c->ByteSize();
  return total;
}

size_t Table::AllocBytes() const {
  size_t total = sizeof(Table);
  for (const auto& c : cols_) total += c->AllocBytes();
  total += names_.capacity() * sizeof(ColId) +
           cols_.capacity() * sizeof(ColumnPtr);
  return total;
}

namespace {

void RenderCell(std::ostream& os, const Column& c, size_t row,
                const StringPool* pool) {
  switch (c.type()) {
    case ColType::kInt:
      os << c.ints()[row];
      break;
    case ColType::kDbl:
      os << c.dbls()[row];
      break;
    case ColType::kStr:
      if (pool) {
        os << '"' << pool->Get(c.strs()[row]) << '"';
      } else {
        os << "str#" << c.strs()[row];
      }
      break;
    case ColType::kBool:
      os << (c.bools()[row] ? "true" : "false");
      break;
    case ColType::kItem: {
      const Item& it = c.items()[row];
      switch (it.kind) {
        case ItemKind::kNode:
          os << "node(" << it.NodeFrag() << "," << it.NodePre() << ")";
          break;
        case ItemKind::kAttr:
          os << "attr(" << it.NodeFrag() << "," << it.NodePre() << ")";
          break;
        case ItemKind::kInt:
          os << it.AsInt();
          break;
        case ItemKind::kDbl:
          os << it.AsDbl();
          break;
        case ItemKind::kStr:
        case ItemKind::kUntyped:
          if (pool) {
            os << '"' << pool->Get(it.AsStr()) << '"';
          } else {
            os << "str#" << it.AsStr();
          }
          break;
        case ItemKind::kBool:
          os << (it.AsBool() ? "true" : "false");
          break;
      }
      break;
    }
  }
}

}  // namespace

std::string Table::ToString(const StringPool* pool, size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i) os << " | ";
    os << ColName(names_[i]);
  }
  os << "\n";
  size_t n = std::min(rows_, max_rows);
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (i) os << " | ";
      RenderCell(os, *cols_[i], r, pool);
    }
    os << "\n";
  }
  if (n < rows_) os << "... (" << rows_ << " rows)\n";
  return os.str();
}

}  // namespace pathfinder::bat
