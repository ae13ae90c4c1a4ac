#ifndef PATHFINDER_BAT_ITEM_OPS_H_
#define PATHFINDER_BAT_ITEM_OPS_H_

#include "base/result.h"
#include "base/string_pool.h"
#include "bat/item.h"

namespace pathfinder::bat {

/// Value-level helpers on single items (numeric promotion, ordering).
/// These implement the dynamic dispatch that MonetDB's per-kind
/// containers + mposjoin provide; kept branchy-but-simple since item
/// columns on hot paths are overwhelmingly mono-kinded.

/// Numeric value of an item: ints/doubles directly, strings and untyped
/// atomics via decimal parse (XQuery's untypedAtomic-to-double cast).
Result<double> ItemToDouble(const Item& it, const StringPool& pool);

/// xs:integer value (kInt directly; kDbl truncating only if integral).
Result<int64_t> ItemToInt(const Item& it, const StringPool& pool);

/// String value of an *atomic* item (nodes must be atomized first).
Result<StrId> ItemToString(const Item& it, StringPool* pool);

/// Effective boolean value of a single atomic item.
Result<bool> ItemToBool(const Item& it, const StringPool& pool);

/// Total order used for sorting (order by, document order, distinct):
/// kind classes rank bool < number < string < node; numbers compare by
/// double value with NaN before every other number (XQuery's `empty
/// least` place for NaN; NaNs tie), strings lexicographically, nodes by
/// (fragment, pre). A strict weak order, as the sorts require.
/// Returns <0, 0, >0.
int ItemOrder(const Item& a, const Item& b, const StringPool& pool);

/// XQuery *value* comparison for eq/lt/...: numeric promotion between
/// numbers (and untyped atomics promoted to double when the other side
/// is numeric); strings compare lexicographically; booleans by value;
/// nodes are not comparable (TypeError).
Result<int> ItemCompareValue(const Item& a, const Item& b,
                             const StringPool& pool);

}  // namespace pathfinder::bat

#endif  // PATHFINDER_BAT_ITEM_OPS_H_
