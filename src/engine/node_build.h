#ifndef PATHFINDER_ENGINE_NODE_BUILD_H_
#define PATHFINDER_ENGINE_NODE_BUILD_H_

#include <cstdint>
#include <optional>
#include <span>

#include "base/result.h"
#include "bat/item.h"
#include "engine/query_context.h"
#include "xml/tree_builder.h"

namespace pathfinder::engine {

/// Runtime for the ε/τ constructors (paper Table 1). Names and contents
/// arrive as surrogates in the context's pool; copied nodes keep theirs
/// (see DESIGN.md, "Surrogates on the row paths").
///
/// One ForestBuilder serves one constructor evaluation: all the trees
/// it builds go into one fragment, a forest (DESIGN.md, "Constructed
/// forests"). Every tree is laid out like a document of its own: a
/// level-0 document node, then the element, or a wrapper element
/// holding the text or attribute node. Trees follow in call order, so
/// document order across them is call order. Each call returns the
/// item of its new node; the items resolve once Finish has registered
/// the fragment with the context.
class ForestBuilder {
 public:
  explicit ForestBuilder(QueryContext* ctx) : ctx_(ctx) {}

  ForestBuilder(const ForestBuilder&) = delete;
  ForestBuilder& operator=(const ForestBuilder&) = delete;

  /// Append an element tree named `name` whose content is `items` (in
  /// sequence order). XQuery content rules: attribute items become
  /// attributes; nodes are deep-copied; runs of adjacent atomics are
  /// joined with single spaces into one text node.
  Result<Item> Element(StrId name, std::span<const Item> items);

  /// Append a text node tree with the given content.
  Item Text(StrId content);

  /// Append a standalone attribute node name="value".
  Item Attribute(StrId name, StrId value);

  /// Encoding bytes of the trees appended so far.
  int64_t bytes() const;

  /// Register the forest with the context. Registers nothing when no
  /// tree was appended; call it once, after the last tree.
  void Finish();

 private:
  /// Open the next tree and return its document node's pre.
  xml::Pre StartTree();

  QueryContext* ctx_;
  std::optional<xml::TreeBuilder> b_;  // set by the first tree
  xml::FragId frag_ = 0;               // reserved by the first tree
  // The wrapper names, interned once per evaluation on first use.
  std::optional<StrId> text_wrapper_;
  std::optional<StrId> attr_wrapper_;
};

/// The string value of a node item (attributes, text, comments, PIs:
/// their value; elements and documents: concatenated descendant text)
/// as a surrogate. Equal to Intern(Document::StringValue); only an
/// element or document whose string value is not a single stored text
/// builds and interns a string.
StrId NodeStringId(QueryContext* ctx, const Item& node);

}  // namespace pathfinder::engine

#endif  // PATHFINDER_ENGINE_NODE_BUILD_H_
