#include "xml/update.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "xml/parser.h"
#include "xml/path_summary.h"
#include "xml/stats.h"

namespace pathfinder::xml {

namespace {

/// Find the child path of `parent` with the given label; -1 if absent.
int32_t FindChildPath(const std::vector<PathNode>& nodes, int32_t parent,
                      StrId tag, bool is_attr) {
  for (int32_t c : nodes[static_cast<size_t>(parent)].children) {
    const PathNode& cn = nodes[static_cast<size_t>(c)];
    if (cn.tag == tag && cn.is_attr == is_attr) return c;
  }
  return -1;
}

int32_t FindOrAddChildPath(std::vector<PathNode>* nodes, int32_t parent,
                           StrId tag, bool is_attr) {
  int32_t found = FindChildPath(*nodes, parent, tag, is_attr);
  if (found >= 0) return found;
  int32_t id = static_cast<int32_t>(nodes->size());
  PathNode n;
  n.tag = tag;
  n.parent = parent;
  n.level = static_cast<uint16_t>(
      (*nodes)[static_cast<size_t>(parent)].level + 1);
  n.is_attr = is_attr;
  nodes->push_back(std::move(n));
  (*nodes)[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

}  // namespace

/// All splice internals; friend of Document and PathSummary.
class DocumentSplicer {
 public:
  static Result<SplicedDoc> Apply(const Document& base, StringPool* pool,
                                  const NodeUpdate& u);

 private:
  /// The patch: rows [at, at + removed) of the base are replaced by the
  /// `ins_*` rows (levels already absolute), all under node `parent`
  /// (the deepest surviving ancestor of the spliced range, whose size —
  /// and its ancestors' sizes — absorb the row-count delta).
  struct Splice {
    Pre at = 0;
    Pre removed = 0;
    Pre parent = 0;
    std::vector<uint32_t> ins_size;
    std::vector<uint16_t> ins_level;
    std::vector<uint8_t> ins_kind;
    std::vector<StrId> ins_prop;
    std::vector<StrId> ins_value;
  };

  static Document BuildSpliced(const Document& base, const Splice& sp);
  static void RepairStats(const Document& fresh, const Splice& sp,
                          DocStats* s);
  static PathSummary RepairSummary(const PathSummary& old,
                                   const Document& base,
                                   const Document& fresh, const Splice& sp);
  static int32_t PathOf(const std::vector<PathNode>& nodes,
                        const Document& base, Pre v);
};

Document DocumentSplicer::BuildSpliced(const Document& base,
                                       const Splice& sp) {
  const Pre n = base.num_nodes();
  const Pre k = static_cast<Pre>(sp.ins_size.size());
  const int64_t delta =
      static_cast<int64_t>(k) - static_cast<int64_t>(sp.removed);
  Document d;
  auto splice = [&](auto& dst, const auto& src, const auto& ins) {
    dst.reserve(static_cast<size_t>(n) - sp.removed + k);
    dst.insert(dst.end(), src.begin(), src.begin() + sp.at);
    dst.insert(dst.end(), ins.begin(), ins.end());
    dst.insert(dst.end(), src.begin() + sp.at + sp.removed, src.end());
  };
  splice(d.size_, base.sizes(), sp.ins_size);
  splice(d.level_, base.levels(), sp.ins_level);
  splice(d.kind_, base.kinds(), sp.ins_kind);
  splice(d.prop_, base.props(), sp.ins_prop);
  splice(d.value_, base.values(), sp.ins_value);
  // The ancestor chain of the splice absorbs the row-count delta; every
  // ancestor precedes the splice point, so chain pres are stable.
  if (delta != 0) {
    Pre a = sp.parent;
    for (;;) {
      d.size_[a] = static_cast<uint32_t>(
          static_cast<int64_t>(d.size_[a]) + delta);
      if (a == 0) break;
      Pre up;
      bool ok = base.Parent(a, &up);
      assert(ok);
      (void)ok;
      a = up;
    }
  }
  return d;
}

void DocumentSplicer::RepairStats(const Document& fresh, const Splice& sp,
                                  DocStats* s) {
  // The maxima only ever grow: removed rows leave them in place (a
  // shrink never invalidates an upper bound), and inserted rows
  // max-merge the recounted fan-outs of every parent they touch.
  const Pre k = static_cast<Pre>(sp.ins_size.size());
  if (k == 0) return;

  // Elements inside the insertion: the ComputeDocStats walk, confined
  // to the fresh rows.
  std::vector<ChildCounts> stack;
  const uint16_t parent_level = fresh.level(sp.parent);
  for (Pre v = sp.at; v < sp.at + k; ++v) {
    // rel >= 1: every inserted row lies below the insertion parent.
    size_t rel = static_cast<size_t>(fresh.level(v) - parent_level);
    while (stack.size() > rel - 1) {
      s->Merge(stack.back());
      stack.pop_back();
    }
    NodeKind kind = fresh.kind(v);
    if (!stack.empty()) stack.back().Add(kind, fresh.prop(v));
    if (kind == NodeKind::kElem) stack.emplace_back();
  }
  while (!stack.empty()) {
    s->Merge(stack.back());
    stack.pop_back();
  }

  // The insertion parent: recount its direct children (attributes
  // first, each child's subtree skipped) in the fresh snapshot.
  ChildCounts pc;
  Pre end = sp.parent + fresh.size(sp.parent);
  for (Pre v = sp.parent + 1; v <= end; v += fresh.size(v) + 1) {
    pc.Add(fresh.kind(v), fresh.prop(v));
  }
  s->Merge(pc);
}

int32_t DocumentSplicer::PathOf(const std::vector<PathNode>& nodes,
                                const Document& base, Pre v) {
  std::vector<StrId> chain;
  Pre cur = v;
  while (cur != 0) {
    chain.push_back(base.prop(cur));
    Pre up;
    bool ok = base.Parent(cur, &up);
    assert(ok);
    (void)ok;
    cur = up;
  }
  int32_t id = 0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    id = FindChildPath(nodes, id, *it, false);
    assert(id >= 0 && "node path missing from summary");
  }
  return id;
}

PathSummary DocumentSplicer::RepairSummary(const PathSummary& old,
                                           const Document& base,
                                           const Document& fresh,
                                           const Splice& sp) {
  PathSummary s = old;  // trie nodes, indexes; partitions rebuilt below
  const Pre k = static_cast<Pre>(sp.ins_size.size());
  const int64_t delta =
      static_cast<int64_t>(k) - static_cast<int64_t>(sp.removed);
  const size_t old_paths = s.nodes_.size();

  // Phase 1: per-path surviving pres, split at the splice point. Kept
  // heads stay, tails shift by the row-count delta, spliced-out pres
  // drop. Document order within each partition is preserved because
  // every head pre < at <= every inserted pre < every shifted tail pre.
  std::vector<std::vector<Pre>> heads(old_paths), tails(old_paths);
  for (size_t id = 1; id < old_paths; ++id) {
    size_t len;
    const Pre* p = s.partition(static_cast<int32_t>(id), &len);
    for (size_t i = 0; i < len; ++i) {
      Pre pre = p[i];
      if (pre < sp.at) {
        heads[id].push_back(pre);
      } else if (pre >= sp.at + sp.removed) {
        tails[id].push_back(static_cast<Pre>(
            static_cast<int64_t>(pre) + delta));
      }
    }
  }

  const int32_t parent_path = PathOf(s.nodes_, base, sp.parent);
  const uint16_t parent_level = base.level(sp.parent);

  // Phase 2: inserted rows join (or create) their paths.
  {
    std::vector<int32_t> pstack;
    auto list_for = [&](int32_t id) -> std::vector<Pre>& {
      if (static_cast<size_t>(id) >= heads.size()) {
        heads.resize(id + 1);
        tails.resize(id + 1);
      }
      return heads[static_cast<size_t>(id)];
    };
    for (Pre v = sp.at; v < sp.at + k; ++v) {
      size_t rel = static_cast<size_t>(fresh.level(v) - parent_level);
      while (pstack.size() > rel - 1) pstack.pop_back();
      int32_t top = pstack.empty() ? parent_path : pstack.back();
      switch (fresh.kind(v)) {
        case NodeKind::kElem: {
          int32_t id = FindOrAddChildPath(&s.nodes_, top, fresh.prop(v),
                                          false);
          list_for(id).push_back(v);
          pstack.push_back(id);
          break;
        }
        case NodeKind::kAttr: {
          int32_t id = FindOrAddChildPath(&s.nodes_, top, fresh.prop(v),
                                          true);
          list_for(id).push_back(v);
          break;
        }
        default:
          break;
      }
    }
  }
  if (heads.size() < s.nodes_.size()) {
    heads.resize(s.nodes_.size());
    tails.resize(s.nodes_.size());
  }

  // Phase 3: flatten head ++ tail per path back into the contiguous
  // partition store; counts follow the partitions exactly. Paths whose
  // last node vanished stay in the trie with an empty partition — every
  // consumer treats an empty slice as "tag absent here", so keeping the
  // path is sound and preserves path ids.
  s.part_.clear();
  size_t total = 0;
  for (size_t id = 1; id < s.nodes_.size(); ++id) {
    total += heads[id].size() + tails[id].size();
  }
  s.part_.reserve(total);
  for (size_t id = 0; id < s.nodes_.size(); ++id) {
    PathNode& p = s.nodes_[id];
    p.part_begin = s.part_.size();
    if (id == 0) continue;
    s.part_.insert(s.part_.end(), heads[id].begin(), heads[id].end());
    s.part_.insert(s.part_.end(), tails[id].begin(), tails[id].end());
    p.count = static_cast<uint32_t>(heads[id].size() + tails[id].size());
  }

  // Phase 4: register paths minted by the insertion. New ids are larger
  // than every existing id, so push_back keeps the by-tag lists sorted.
  for (size_t id = old_paths; id < s.nodes_.size(); ++id) {
    const PathNode& p = s.nodes_[id];
    if (p.is_attr) {
      s.attr_by_name_[p.tag].push_back(static_cast<int32_t>(id));
    } else {
      s.elem_by_tag_[p.tag].push_back(static_cast<int32_t>(id));
      s.num_element_paths_++;
    }
  }
  return s;
}

Result<SplicedDoc> DocumentSplicer::Apply(const Document& base,
                                          StringPool* pool,
                                          const NodeUpdate& u) {
  const Pre n = base.num_nodes();
  if (u.target >= n) {
    return Status::InvalidArgument("update target " +
                                   std::to_string(u.target) +
                                   " out of range (document has " +
                                   std::to_string(n) + " nodes)");
  }
  const NodeKind tkind = base.kind(u.target);

  // Content-only fast path: replacing the value of a leaf node touches
  // one cell of the value column — structure, stats and the path summary
  // are untouched (both are *shared* with the base).
  if (u.kind == NodeUpdate::Kind::kReplaceValue &&
      tkind != NodeKind::kElem) {
    if (tkind == NodeKind::kDoc) {
      return Status::InvalidArgument(
          "cannot replace the value of the document node");
    }
    SplicedDoc out;
    Document d;
    d.size_ = base.sizes();
    d.level_ = base.levels();
    d.kind_ = base.kinds();
    d.prop_ = base.props();
    d.value_ = base.values();
    d.value_[u.target] = pool->Intern(u.value);
    d.stats_ = base.stats_;
    d.summary_ = base.shared_summary();
    out.doc = std::move(d);
    out.structural = false;
    out.at = u.target;
    out.removed = 1;
    out.inserted = 1;
    return out;
  }

  Splice sp;
  switch (u.kind) {
    case NodeUpdate::Kind::kDelete: {
      if (u.target == 0) {
        return Status::InvalidArgument("cannot delete the document node");
      }
      Pre parent;
      base.Parent(u.target, &parent);
      if (parent == 0 && tkind == NodeKind::kElem) {
        // The document node must keep at least one element child.
        uint32_t root_elems = 0;
        Pre v = 1;
        while (v < n) {
          if (base.kind(v) == NodeKind::kElem) root_elems++;
          v += base.size(v) + 1;
        }
        if (root_elems <= 1) {
          return Status::InvalidArgument(
              "cannot delete the document's only root element");
        }
      }
      sp.at = u.target;
      sp.removed = base.size(u.target) + 1;
      sp.parent = parent;
      break;
    }
    case NodeUpdate::Kind::kReplaceValue: {
      // Element: its content becomes the single text node `value`.
      Pre end = u.target + base.size(u.target);
      Pre first = u.target + 1;
      while (first <= end && base.IsAttr(first) &&
             base.level(first) == base.level(u.target) + 1) {
        ++first;
      }
      sp.at = first;
      sp.removed = end + 1 - first;
      sp.parent = u.target;
      if (!u.value.empty()) {
        sp.ins_size.push_back(0);
        sp.ins_level.push_back(
            static_cast<uint16_t>(base.level(u.target) + 1));
        sp.ins_kind.push_back(static_cast<uint8_t>(NodeKind::kText));
        sp.ins_prop.push_back(0);
        sp.ins_value.push_back(pool->Intern(u.value));
      }
      break;
    }
    case NodeUpdate::Kind::kInsertChild: {
      if (tkind != NodeKind::kElem) {
        return Status::InvalidArgument(
            "insert target must be an element node");
      }
      PF_ASSIGN_OR_RETURN(Document frag, ParseXml(u.xml, pool));
      const Pre fn = frag.num_nodes();
      uint16_t max_level = 0;
      for (Pre v = 1; v < fn; ++v) {
        max_level = std::max(max_level, frag.level(v));
      }
      const uint16_t tlevel = base.level(u.target);
      if (static_cast<uint32_t>(tlevel) + max_level > 0xFFFF) {
        return Status::InvalidArgument(
            "insert would exceed the maximum tree depth");
      }
      // Insertion point: before the position-th child (attributes come
      // first and always stay with the element), append past the end.
      Pre end = u.target + base.size(u.target);
      Pre v = u.target + 1;
      while (v <= end && base.IsAttr(v) && base.level(v) == tlevel + 1) {
        ++v;
      }
      Pre at = end + 1;
      if (u.position >= 0) {
        int32_t idx = 0;
        while (v <= end) {
          if (idx == u.position) {
            at = v;
            break;
          }
          v += base.size(v) + 1;
          ++idx;
        }
      }
      sp.at = at;
      sp.removed = 0;
      sp.parent = u.target;
      sp.ins_size.reserve(fn - 1);
      for (Pre f = 1; f < fn; ++f) {
        sp.ins_size.push_back(frag.size(f));
        sp.ins_level.push_back(
            static_cast<uint16_t>(frag.level(f) + tlevel));
        sp.ins_kind.push_back(static_cast<uint8_t>(frag.kind(f)));
        sp.ins_prop.push_back(frag.prop(f));
        sp.ins_value.push_back(frag.value(f));
      }
      break;
    }
  }

  SplicedDoc out;
  out.structural = true;
  out.at = sp.at;
  out.removed = sp.removed;
  out.inserted = static_cast<Pre>(sp.ins_size.size());
  Document fresh = BuildSpliced(base, sp);
  if (base.stats() != nullptr) {
    DocStats s = *base.stats();
    RepairStats(fresh, sp, &s);
    fresh.set_stats(std::move(s));
  }
  if (base.summary() != nullptr) {
    fresh.set_summary(RepairSummary(*base.summary(), base, fresh, sp));
  }
  out.doc = std::move(fresh);
  return out;
}

Result<SplicedDoc> ApplyNodeUpdate(const Document& base, StringPool* pool,
                                   const NodeUpdate& u) {
  return DocumentSplicer::Apply(base, pool, u);
}

Result<UpdateResult> ApplyUpdate(Database* db, const std::string& name,
                                 const NodeUpdate& u) {
  // Updaters serialize on the store's update lock for the whole
  // read-splice-publish cycle, so two concurrent updates never splice
  // off the same base snapshot (one would silently undo the other).
  // Queries never take this lock.
  auto lock = db->LockForUpdate();
  PF_ASSIGN_OR_RETURN(FragId cur, db->FindDocument(name));
  const Document& base = db->doc(cur);
  PF_ASSIGN_OR_RETURN(SplicedDoc sp, ApplyNodeUpdate(base, db->pool(), u));
  UpdateResult r;
  r.structural = sp.structural;
  r.nodes_before = base.num_nodes();
  r.nodes_after = sp.doc.num_nodes();
  r.frag = db->PublishUpdate(name, std::move(sp.doc), sp.structural);
  return r;
}

}  // namespace pathfinder::xml
