#ifndef PATHFINDER_ENGINE_NODE_BUILD_H_
#define PATHFINDER_ENGINE_NODE_BUILD_H_

#include <vector>

#include "base/result.h"
#include "bat/item.h"
#include "engine/query_context.h"

namespace pathfinder::engine {

/// Runtime for the ε/τ constructors (paper Table 1). Names and contents
/// arrive as surrogates in the context's pool; copied nodes keep theirs
/// (see DESIGN.md, "Surrogates on the row paths").

/// Construct one element node named `name` whose content is `items`
/// (in sequence order). XQuery content rules: attribute items become
/// attributes; nodes are deep-copied; runs of adjacent atomics are
/// joined with single spaces into one text node.
/// Returns the new node item.
Result<Item> BuildElement(QueryContext* ctx, StrId name,
                          const std::vector<Item>& items);

/// Construct a text node with the given content.
Item BuildText(QueryContext* ctx, StrId content);

/// Construct a standalone attribute node name="value".
Item BuildAttribute(QueryContext* ctx, StrId name, StrId value);

/// The string value of a node item (attributes, text, comments, PIs:
/// their value; elements and documents: concatenated descendant text)
/// as a surrogate. Equal to Intern(Document::StringValue); only an
/// element or document whose string value is not a single stored text
/// builds and interns a string.
StrId NodeStringId(QueryContext* ctx, const Item& node);

}  // namespace pathfinder::engine

#endif  // PATHFINDER_ENGINE_NODE_BUILD_H_
