#ifndef PATHFINDER_XML_UPDATE_H_
#define PATHFINDER_XML_UPDATE_H_

#include <cstdint>
#include <string>

#include "base/result.h"
#include "base/string_pool.h"
#include "xml/database.h"
#include "xml/document.h"

namespace pathfinder::xml {

/// One node-level document update (the XQuery Update primitives the
/// engine supports). Applied copy-on-write: the current Document
/// snapshot is never touched — a new snapshot is built by splicing the
/// pre|size|level columns (prefix + patched rows + shifted suffix), so
/// only the target's ancestor chain's `size` entries and the spliced
/// row range are recomputed, and queries already in flight keep reading
/// the old snapshot unsynchronized.
struct NodeUpdate {
  enum class Kind : uint8_t {
    /// Parse `xml` as a fragment and insert its root node(s) as
    /// children of element `target`, before the child at index
    /// `position` (-1 or past-the-end = append after the last child).
    /// Attributes of `target` keep preceding the inserted content.
    kInsertChild,
    /// Remove node `target` and its entire subtree (an attribute node
    /// removes just itself). The document node and the document's only
    /// root element cannot be deleted.
    kDelete,
    /// Replace the *value* of `target` with `value`: for
    /// text/comment/PI/attribute nodes this is a pure content change
    /// (the tree shape, and therefore every pre rank, is unchanged);
    /// for an element it replaces the element's content with the
    /// single text node `value` (empty = no content), which is a
    /// structural change.
    kReplaceValue,
  };

  Kind kind = Kind::kReplaceValue;
  /// Pre rank of the target node in the *current* snapshot.
  Pre target = 0;
  /// kInsertChild: child index to insert before; -1 = append.
  int32_t position = -1;
  /// kInsertChild: the XML fragment to insert (one root element).
  std::string xml;
  /// kReplaceValue: the new content.
  std::string value;
};

/// A spliced snapshot plus what the splice did — the doc-level update
/// primitive (no Database involved; the model tests drive it directly).
/// `doc` carries incrementally repaired stats and path summary:
///  * the path summary's partitions and counts are maintained *exactly*;
///  * the fan-out maxima of DocStats (max_children / max_text_children
///    / max_per_owner) are maintained as sound upper bounds: inserts
///    max-merge the recounted fan-outs of the touched parents, deletes
///    keep the old maxima. Key inference only ever needs "max <= 1"
///    proofs, so an upper bound never breaks correctness.
/// A content-only update shares the base's stats and summary.
struct SplicedDoc {
  Document doc;
  /// False iff the update changed only the `value` column (pre ranks,
  /// sizes, levels, kinds and props are bit-identical to the base).
  bool structural = true;
  /// Replaced row range of the base: [at, at + removed) became
  /// `inserted` fresh rows (for a content-only update, removed ==
  /// inserted == 1 and only the value changed).
  Pre at = 0;
  Pre removed = 0;
  Pre inserted = 0;
};

/// Apply one update to a document snapshot. `pool` must be the pool the
/// document's surrogates point into (fragment text is interned there).
Result<SplicedDoc> ApplyNodeUpdate(const Document& base, StringPool* pool,
                                   const NodeUpdate& u);

/// The result of a database-level update.
struct UpdateResult {
  /// The fragment id of the new snapshot now bound to the name.
  FragId frag = 0;
  bool structural = true;
  Pre nodes_before = 0;
  Pre nodes_after = 0;
};

/// Apply one update to the document bound to `name`: splice a new
/// snapshot off the current one and rebind the name to it (the old
/// FragId stays readable for in-flight queries — the store's usual
/// snapshot isolation). Updaters serialize on the database's update
/// lock, so concurrent ApplyUpdate calls never splice off the same base
/// and updates are never lost; queries are never blocked.
///
/// Version bookkeeping: a structural update bumps the name's structure
/// and content versions, a content-only update bumps just the content
/// version — the query cache repairs (instead of evicts) value-free
/// entries across content-only bumps (see engine::QueryCache).
Result<UpdateResult> ApplyUpdate(Database* db, const std::string& name,
                                 const NodeUpdate& u);

}  // namespace pathfinder::xml

#endif  // PATHFINDER_XML_UPDATE_H_
