#ifndef PATHFINDER_XML_PATH_SUMMARY_H_
#define PATHFINDER_XML_PATH_SUMMARY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/string_pool.h"

namespace pathfinder::xml {

class Document;
using Pre = uint32_t;

/// One node of the path summary: a distinct labeled root-to-node path
/// (Arion et al., "Path Summaries and Path Partitioning in Modern XML
/// Databases"). Path 0 is the document node; every other path is an
/// element or attribute path reached from its parent path.
struct PathNode {
  StrId tag = 0;        // element tag / attribute name; 0 for path 0
  int32_t parent = -1;  // parent path id, -1 for path 0
  uint16_t level = 0;   // tree level of the nodes on this path
  bool is_attr = false;
  uint32_t count = 0;             // nodes covered by this path
  std::vector<int32_t> children;  // child element and attribute paths
  // Path partition: slice [part_begin, part_begin + count) of
  // PathSummary::partitions() holding the covered pres in document
  // order (empty slice for path 0 — the document node itself is not
  // partitioned).
  size_t part_begin = 0;
};

/// Shred-time path summary of one document: the tiny trie of distinct
/// root-to-element/attribute label paths, each annotated with its
/// cardinality, plus the path-partitioned node storage —
/// every element/attribute pre of the document appears in exactly one
/// path's contiguous partition slice, in document order.
///
/// Built once per document before it is published to the store
/// (Database::AddDocument) and immutable afterwards, so readers share
/// it without synchronization. Two consumers:
///  * the structural-path rewrite (opt/path_rewrite.h) answers pure
///    step chains by concatenating partition slices,
///  * the staircase join (accel/step.cc) prunes name-test scans to the
///    partitions of the matching tag.
/// Updates keep partitions and counts exact (xml/update.h).
class PathSummary {
 public:
  size_t num_paths() const { return nodes_.size(); }
  const PathNode& path(int32_t id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  /// Element paths only (excludes path 0 and attribute paths).
  size_t num_element_paths() const { return num_element_paths_; }

  /// Flat path-partitioned pre store; see PathNode::part_begin.
  const std::vector<Pre>& partitions() const { return part_; }

  /// The partition slice of one path (document-ordered pres; empty for
  /// path 0 — the document node is not partitioned).
  const Pre* partition(int32_t id, size_t* len) const {
    const PathNode& p = nodes_[static_cast<size_t>(id)];
    *len = id == 0 ? 0 : p.count;
    return part_.data() + p.part_begin;
  }

  /// Ids of the element paths whose tag is `t` (nullptr when the tag
  /// does not occur), sorted ascending.
  const std::vector<int32_t>* ElementPathsByTag(StrId t) const {
    auto it = elem_by_tag_.find(t);
    return it == elem_by_tag_.end() ? nullptr : &it->second;
  }

  /// Structural axis/test subset the trie can navigate. (xml/ cannot
  /// depend on accel/, so the mapping from accel::Axis/NodeTest lives
  /// with the callers.)
  enum class StepAxis : uint8_t {
    kChild,
    kDescendant,
    kDescendantOrSelf,
    kSelf,
    kAttribute,
  };
  enum class StepTest : uint8_t {
    kName,     // element name (attribute name on the attribute axis)
    kElement,  // * — any element (any attribute on the attribute axis)
    kAnyNode,  // node()
  };

  /// Resolve one structural axis step over a set of path ids (sorted,
  /// duplicate-free); `out` receives the sorted, duplicate-free result
  /// path set.
  ///
  /// The summary holds element and attribute paths only, so kAnyNode
  /// resolves to the *structural* subset (elements, plus the document
  /// node for self) — sound for intermediate navigation steps, but a
  /// FINAL node() step would miss text/comment/PI results; callers
  /// enforce that restriction (see opt/path_rewrite.cc).
  void ResolveStep(StepAxis axis, StepTest test, StrId name,
                   const std::vector<int32_t>& in,
                   std::vector<int32_t>* out) const;

  /// Gather the union of the paths' partitions into `out` in document
  /// order, restricted to pres in [lo, hi] (partitions are disjoint, so
  /// the union is duplicate-free). Returns the number of pres emitted.
  size_t GatherPartitions(const std::vector<int32_t>& paths, Pre lo, Pre hi,
                          std::vector<Pre>* out) const;

  size_t MemoryBytes() const;

 private:
  friend PathSummary BuildPathSummary(const Document& doc);
  friend class DocumentSplicer;  // incremental repair (xml/update.h)

  /// The child path of `parent` with the given label; -1 if absent.
  int32_t FindChildPath(int32_t parent, StrId tag, bool is_attr) const;
  /// Assign rows [begin, end) of `doc` to their paths (minting missing
  /// ones), counting them and appending each pre to `pres[path]`. With
  /// `under_path` < 0 the rows are a whole document; otherwise they sit
  /// below the open node `under_pre` on path `under_path`.
  void AddRows(const Document& doc, Pre begin, Pre end, int32_t under_path,
               Pre under_pre, std::vector<std::vector<Pre>>* pres);
  /// Add the element paths among [from, num_paths()) to the by-tag index.
  void IndexPaths(size_t from);

  std::vector<PathNode> nodes_;
  std::vector<Pre> part_;
  std::unordered_map<StrId, std::vector<int32_t>> elem_by_tag_;
  size_t num_element_paths_ = 0;
};

/// One pass over the pre|size|level encoding (a level-driven stack of
/// open nodes).
PathSummary BuildPathSummary(const Document& doc);

}  // namespace pathfinder::xml

#endif  // PATHFINDER_XML_PATH_SUMMARY_H_
