#ifndef PATHFINDER_BASELINE_NODE_BUILD_H_
#define PATHFINDER_BASELINE_NODE_BUILD_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "bat/item.h"
#include "engine/query_context.h"

namespace pathfinder::baseline {

/// The navigational engine's own ε/τ constructors. They build node by
/// node from strings, the way a DOM engine would, so the oracle shares
/// no construction code with the relational engine (engine/node_build,
/// which copies surrogates and whole pre ranges).

/// Construct one element node named `name` whose content is `items`
/// (in sequence order). XQuery content rules: attribute items become
/// attributes; nodes are deep-copied; runs of adjacent atomics are
/// joined with single spaces into one text node.
/// Returns the new node item.
Result<Item> BuildElement(engine::QueryContext* ctx, const std::string& name,
                          const std::vector<Item>& items);

/// Construct a text node with the given content.
Item BuildText(engine::QueryContext* ctx, const std::string& content);

/// Construct a standalone attribute node name="value".
Item BuildAttribute(engine::QueryContext* ctx, const std::string& name,
                    const std::string& value);

}  // namespace pathfinder::baseline

#endif  // PATHFINDER_BASELINE_NODE_BUILD_H_
