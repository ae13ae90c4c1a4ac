#ifndef PATHFINDER_XML_STATS_H_
#define PATHFINDER_XML_STATS_H_

#include <cstdint>
#include <unordered_map>

#include "base/string_pool.h"

namespace pathfinder::xml {

class Document;
enum class NodeKind : uint8_t;

/// Direct-child counts of one element or of the document node, as the
/// shred-time pass and update repair (xml/update.cc) gather them.
struct ChildCounts {
  std::unordered_map<StrId, uint32_t> elems;  // per child element tag
  std::unordered_map<StrId, uint32_t> attrs;  // per attribute name
  uint32_t texts = 0;

  /// Count one direct child; other node kinds are ignored.
  void Add(NodeKind kind, StrId prop);
};

/// Shred-time document statistics: the three fan-out maxima that let
/// key inference (opt::MakeStepUniqueness) prove a `child::C`,
/// `child::text()` or `attribute::a` step yields at most one node per
/// context node — the license to drop the existential distincts the
/// loop-lifting compiler emits.
///
/// Computed once per document inside Database::AddDocument, before the
/// document is published, and immutable afterwards — the optimizer
/// reads them wait-free through Document::stats(). Names are keyed by
/// StrId surrogates of the shared StringPool, so identical tags across
/// documents share keys. Updates keep every maximum a sound upper bound
/// (xml/update.h).
struct DocStats {
  /// Per element tag C: the most C-tagged element children any single
  /// parent (element or document node) has.
  std::unordered_map<StrId, uint32_t> max_children;
  /// The most direct text-node children any single element (or the
  /// document node) has.
  uint32_t max_text_children = 0;
  /// Per attribute name: the most attributes of that name on one owner
  /// element (1 for well-formed XML; measured, not assumed, so
  /// `attribute::name` uniqueness never depends on parser leniency).
  std::unordered_map<StrId, uint32_t> max_per_owner;

  /// Max-merge one parent's direct-child counts.
  void Merge(const ChildCounts& c);

  /// 0 = tag absent, 1 = `child::C` is per-context unique everywhere in
  /// this document.
  uint32_t MaxChildren(StrId child_tag) const {
    auto it = max_children.find(child_tag);
    return it == max_children.end() ? 0 : it->second;
  }
  /// 0 = name absent, 1 = `attribute::name` is per-owner unique.
  uint32_t MaxPerOwner(StrId attr_name) const {
    auto it = max_per_owner.find(attr_name);
    return it == max_per_owner.end() ? 0 : it->second;
  }
};

/// One pass over the pre|size|level encoding (O(nodes), stack of open
/// elements driven by the level column).
DocStats ComputeDocStats(const Document& doc);

}  // namespace pathfinder::xml

#endif  // PATHFINDER_XML_STATS_H_
