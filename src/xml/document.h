#ifndef PATHFINDER_XML_DOCUMENT_H_
#define PATHFINDER_XML_DOCUMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/string_pool.h"
#include "xml/path_summary.h"

namespace pathfinder::xml {

/// Node kinds stored in the encoding's `kind` column.
enum class NodeKind : uint8_t {
  kDoc = 0,      // document root node (always pre = 0)
  kElem = 1,     // element
  kAttr = 2,     // attribute (size 0, stored right after its owner)
  kText = 3,     // text node
  kComment = 4,  // comment
  kPi = 5,       // processing instruction
};

/// Pre-order rank of a node within its fragment.
using Pre = uint32_t;

/// XPath Accelerator relational encoding of one XML tree (paper Sec. 2).
///
/// Each node v occupies row pre(v) of five parallel columns:
///   size(v)  — number of nodes in the subtree below v,
///   level(v) — distance from the root,
///   kind(v)  — NodeKind,
///   prop(v)  — surrogate of the node *name* (element tag, attribute
///              name, PI target); 0 where not applicable,
///   value(v) — surrogate of the node *content* (text/comment content,
///              attribute value); 0 where not applicable.
/// Attribute nodes are stored immediately after their owner element at
/// level(owner)+1 with size 0; the child/descendant axes exclude them,
/// the attribute axis selects exactly them.
///
/// Property surrogates point into a shared StringPool, so identical tags
/// and identical text contents share one pooled copy (the paper's
/// surrogate sharing, Sec. 3.1).
///
/// A document may also be a forest: several trees one after another,
/// each laid out like a document of its own under a level-0 document
/// node (TreeBuilder::NextTree). Constructor results are built this way,
/// one forest per operator evaluation.
class Document {
 public:
  /// Encoding bytes per node (the five columns).
  static constexpr size_t kNodeBytes = sizeof(uint32_t) + sizeof(uint16_t) +
                                       sizeof(uint8_t) + 2 * sizeof(StrId);

  Pre num_nodes() const { return static_cast<Pre>(size_.size()); }

  uint32_t size(Pre v) const { return size_[v]; }
  uint16_t level(Pre v) const { return level_[v]; }
  NodeKind kind(Pre v) const { return static_cast<NodeKind>(kind_[v]); }
  StrId prop(Pre v) const { return prop_[v]; }
  StrId value(Pre v) const { return value_[v]; }

  bool IsAttr(Pre v) const { return kind(v) == NodeKind::kAttr; }

  /// Parent of v, or false for a document node. O(distance to previous
  /// sibling chain) backwards scan; the relational engine never calls
  /// this on hot paths (it uses the ancestor region instead).
  bool Parent(Pre v, Pre* parent) const;

  /// The document node of v's tree: 0 unless the document is a forest,
  /// where it is found by binary search over the trees' roots.
  Pre TreeRoot(Pre v) const;
  /// The trees' document nodes in pre order when the document is a
  /// forest of two or more trees; empty for a single tree at pre 0.
  const std::vector<Pre>& tree_roots() const { return roots_; }

  /// XPath string value: concatenation of all descendant text node
  /// contents (for attributes: the attribute value).
  std::string StringValue(Pre v, const StringPool& pool) const;

  /// Raw column access for the kernel/staircase join.
  const std::vector<uint32_t>& sizes() const { return size_; }
  const std::vector<uint16_t>& levels() const { return level_; }
  const std::vector<uint8_t>& kinds() const { return kind_; }
  const std::vector<StrId>& props() const { return prop_; }
  const std::vector<StrId>& values() const { return value_; }

  /// Bytes occupied by the structural encoding columns (Sec. 3.1
  /// storage accounting; pool payload counted separately).
  size_t EncodingBytes() const;

  /// Structural sanity: sizes nest properly, levels are consistent,
  /// attributes have size 0, every tree starts at a document node (for
  /// a forest: exactly at tree_roots()). Used by tests and the shredder.
  bool Validate(std::string* error) const;

  /// Path summary + path-partitioned node index (xml/path_summary.h).
  /// Null until the document is registered: Database::AddDocument
  /// builds it before publishing the slot, so any document obtained
  /// from the store has one; immutable afterwards. Constructed
  /// fragments (ε/τ results) never have one.
  const PathSummary* summary() const { return summary_.get(); }
  std::shared_ptr<const PathSummary> shared_summary() const {
    return summary_;
  }
  void set_summary(PathSummary s) {
    summary_ = std::make_shared<const PathSummary>(std::move(s));
  }

 private:
  friend class TreeBuilder;
  friend class DocumentSplicer;  // node-level updates (xml/update.h)

  std::vector<uint32_t> size_;
  std::vector<uint16_t> level_;
  std::vector<uint8_t> kind_;
  std::vector<StrId> prop_;
  std::vector<StrId> value_;
  std::vector<Pre> roots_;  // see tree_roots()
  std::shared_ptr<const PathSummary> summary_;
};

}  // namespace pathfinder::xml

#endif  // PATHFINDER_XML_DOCUMENT_H_
