#include "bat/item_ops.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace pathfinder::bat {

namespace {

// Kind class used by ItemOrder: bool(0) < number(1) < string(2) < node(3).
int KindClass(ItemKind k) {
  switch (k) {
    case ItemKind::kBool:
      return 0;
    case ItemKind::kInt:
    case ItemKind::kDbl:
      return 1;
    case ItemKind::kStr:
    case ItemKind::kUntyped:
      return 2;
    case ItemKind::kNode:
    case ItemKind::kAttr:
      return 3;
  }
  return 4;
}

// Fast pre-check so non-numeric strings skip the strtod round trip.
bool LooksNumeric(std::string_view s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return false;
  char c = s[b];
  return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
}

Result<double> ParseDouble(std::string_view s) {
  // Trim XML whitespace.
  size_t b = s.find_first_not_of(" \t\r\n");
  size_t e = s.find_last_not_of(" \t\r\n");
  if (b == std::string_view::npos) {
    return Status::TypeError("cannot cast empty string to xs:double");
  }
  std::string t(s.substr(b, e - b + 1));
  char* end = nullptr;
  double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) {
    return Status::TypeError("cannot cast '" + t + "' to xs:double");
  }
  return v;
}

}  // namespace

Result<double> ItemToDouble(const Item& it, const StringPool& pool) {
  switch (it.kind) {
    case ItemKind::kInt:
      return static_cast<double>(it.AsInt());
    case ItemKind::kDbl:
      return it.AsDbl();
    case ItemKind::kStr:
    case ItemKind::kUntyped:
      return ParseDouble(pool.Get(it.AsStr()));
    case ItemKind::kBool:
      return it.AsBool() ? 1.0 : 0.0;
    case ItemKind::kNode:
    case ItemKind::kAttr:
      return Status::TypeError("node used as number without atomization");
  }
  return Status::Internal("bad item kind");
}

Result<int64_t> ItemToInt(const Item& it, const StringPool& pool) {
  switch (it.kind) {
    case ItemKind::kInt:
      return it.AsInt();
    case ItemKind::kDbl: {
      double d = it.AsDbl();
      return static_cast<int64_t>(d);
    }
    case ItemKind::kStr:
    case ItemKind::kUntyped: {
      PF_ASSIGN_OR_RETURN(double d, ItemToDouble(it, pool));
      return static_cast<int64_t>(d);
    }
    case ItemKind::kBool:
      return it.AsBool() ? int64_t{1} : int64_t{0};
    default:
      return Status::TypeError("node used as integer without atomization");
  }
}

Result<StrId> ItemToString(const Item& it, StringPool* pool) {
  switch (it.kind) {
    case ItemKind::kStr:
    case ItemKind::kUntyped:
      return it.AsStr();
    case ItemKind::kInt:
      return pool->Intern(std::to_string(it.AsInt()));
    case ItemKind::kDbl: {
      double d = it.AsDbl();
      if (d == static_cast<int64_t>(d) && std::abs(d) < 1e15) {
        // Serialize integral doubles without a trailing ".0", matching
        // XQuery's xs:decimal-ish output for whole numbers.
        return pool->Intern(std::to_string(static_cast<int64_t>(d)));
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return pool->Intern(buf);
    }
    case ItemKind::kBool:
      return pool->Intern(it.AsBool() ? "true" : "false");
    case ItemKind::kNode:
    case ItemKind::kAttr:
      return Status::TypeError("node used as string without atomization");
  }
  return Status::Internal("bad item kind");
}

Result<bool> ItemToBool(const Item& it, const StringPool& pool) {
  switch (it.kind) {
    case ItemKind::kBool:
      return it.AsBool();
    case ItemKind::kInt:
      return it.AsInt() != 0;
    case ItemKind::kDbl:
      return it.AsDbl() != 0.0 && !std::isnan(it.AsDbl());
    case ItemKind::kStr:
    case ItemKind::kUntyped:
      return !pool.Get(it.AsStr()).empty();
    case ItemKind::kNode:
    case ItemKind::kAttr:
      return true;  // a node's effective boolean value is true
  }
  return Status::Internal("bad item kind");
}

int ItemOrder(const Item& a, const Item& b, const StringPool& pool) {
  int ka = KindClass(a.kind), kb = KindClass(b.kind);
  if (ka != kb) return ka < kb ? -1 : 1;
  switch (ka) {
    case 0: {  // bool
      return static_cast<int>(a.AsBool()) - static_cast<int>(b.AsBool());
    }
    case 1: {  // number; NaN first, so the order stays a strict weak one
      double da = a.kind == ItemKind::kInt ? static_cast<double>(a.AsInt())
                                           : a.AsDbl();
      double db = b.kind == ItemKind::kInt ? static_cast<double>(b.AsInt())
                                           : b.AsDbl();
      const bool nan_a = std::isnan(da), nan_b = std::isnan(db);
      if (nan_a || nan_b) return static_cast<int>(nan_b) - nan_a;
      if (da < db) return -1;
      if (da > db) return 1;
      return 0;
    }
    case 2: {  // string
      if (a.raw == b.raw) return 0;  // same surrogate == same string
      return pool.Get(a.AsStr()).compare(pool.Get(b.AsStr())) < 0 ? -1 : 1;
    }
    default: {  // node: document order = (fragment, pre)
      if (a.raw < b.raw) return -1;
      if (a.raw > b.raw) return 1;
      return 0;
    }
  }
}

Result<int> ItemCompareValue(const Item& a, const Item& b,
                             const StringPool& pool) {
  if (a.IsNode() || b.IsNode()) {
    return Status::TypeError("value comparison on non-atomized node");
  }
  // untyped atomics follow the other operand's type; two untyped (or any
  // string pairing) compare as strings.
  bool num_a = a.IsNumeric(), num_b = b.IsNumeric();
  if (num_a || num_b) {
    PF_ASSIGN_OR_RETURN(double da, ItemToDouble(a, pool));
    PF_ASSIGN_OR_RETURN(double db, ItemToDouble(b, pool));
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  if (a.kind == ItemKind::kBool || b.kind == ItemKind::kBool) {
    PF_ASSIGN_OR_RETURN(bool ba, ItemToBool(a, pool));
    PF_ASSIGN_OR_RETURN(bool bb, ItemToBool(b, pool));
    return static_cast<int>(ba) - static_cast<int>(bb);
  }
  // Both string-like. Deviation from strict W3C rules (documented in
  // DESIGN.md): if BOTH sides parse as numbers they compare numerically,
  // so that untyped attribute content like @year="2000" compares the
  // same way whether the other side is typed or not. Otherwise compare
  // as strings.
  std::string_view sa = pool.Get(a.AsStr());
  std::string_view sb = pool.Get(b.AsStr());
  if (LooksNumeric(sa) && LooksNumeric(sb)) {
    auto da = ParseDouble(sa);
    auto db = ParseDouble(sb);
    if (da.ok() && db.ok()) {
      if (*da < *db) return -1;
      if (*da > *db) return 1;
      return 0;
    }
  }
  if (a.raw == b.raw) return 0;
  int c = sa.compare(sb);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

}  // namespace pathfinder::bat
