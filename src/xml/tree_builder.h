#ifndef PATHFINDER_XML_TREE_BUILDER_H_
#define PATHFINDER_XML_TREE_BUILDER_H_

#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/string_pool.h"
#include "xml/document.h"

namespace pathfinder::xml {

/// Single-pass builder of the pre|size|level encoding ("shredder" core).
///
/// Both the XML parser and the XMark generator drive this interface, so
/// programmatically generated documents never need a serialize/reparse
/// round trip. Usage:
///
///   TreeBuilder b(&pool);
///   b.StartElem("a"); b.Attr("id", "1"); b.Text("hi"); b.EndElem();
///   Document doc = std::move(b).Finish();
///
/// The string entry points intern their arguments; the StrId ones take
/// surrogates that are already in pool() (the element constructors'
/// path, which never handles the strings themselves).
///
/// NextTree turns the document into a forest: the open tree closes and
/// the next one starts at a new level-0 document node.
class TreeBuilder {
 public:
  explicit TreeBuilder(StringPool* pool);

  TreeBuilder(const TreeBuilder&) = delete;
  TreeBuilder& operator=(const TreeBuilder&) = delete;

  void StartElem(std::string_view tag);
  void StartElem(StrId tag);
  /// Only legal directly after StartElem / a previous Attr.
  void Attr(std::string_view name, std::string_view value);
  void Attr(StrId name, StrId value);
  void Text(std::string_view content);
  void Text(StrId content);
  void Comment(std::string_view content);
  void Pi(std::string_view target, std::string_view content);
  void EndElem();

  /// Append a deep copy of the subtree of `src` rooted at `v` (for a
  /// document node: its children) as the next content of the innermost
  /// open element. `src` must refer into pool(). The copy is one bulk
  /// append of the subtree's pre range to the five columns, its levels
  /// re-based by one offset; sizes, kinds and surrogates carry over
  /// unchanged. An attribute source is only legal where Attr is.
  void CopySubtree(const Document& src, Pre v);

  /// Close the current tree (no element may be open) and start the
  /// next one at a new document node, whose pre is returned. The
  /// document records every tree's root (Document::tree_roots()).
  Pre NextTree();

  /// Current nesting depth (open elements).
  size_t depth() const { return stack_.size(); }
  /// The pool names/contents are interned into.
  StringPool* pool() const { return pool_; }
  /// Nodes emitted so far.
  Pre num_nodes() const { return static_cast<Pre>(doc_.size_.size()); }

  /// Close the document; fails if elements are still open or the last
  /// tree has no content.
  Result<Document> Finish() &&;

 private:
  Pre Emit(NodeKind kind, StrId prop, StrId value);
  /// Make room for `rows` nodes in all five columns, growing them to the
  /// next power of two (see DESIGN.md, "Surrogates on the row paths").
  void Reserve(size_t rows);
  /// Set the current tree's document node size to cover its nodes.
  void CloseTree();

  StringPool* pool_;
  Document doc_;
  // stack_[0] is the current tree's document node, then the pre ranks
  // of the open elements.
  std::vector<Pre> stack_;
  bool in_start_tag_ = false;
};

}  // namespace pathfinder::xml

#endif  // PATHFINDER_XML_TREE_BUILDER_H_
