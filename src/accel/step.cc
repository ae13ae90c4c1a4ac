#include "accel/step.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace pathfinder::accel {

using xml::Document;
using xml::NodeKind;
using xml::Pre;

namespace {

Pre End(const Document& doc, Pre v) { return v + doc.size(v); }

// Children of v in document order (skipping attribute rows, jumping
// over grandchild subtrees via the size column).
template <typename Fn>
void ForEachChild(const Document& doc, Pre v, Fn&& fn) {
  Pre end = End(doc, v);
  Pre w = v + 1;
  while (w <= end) {
    if (doc.kind(w) == NodeKind::kAttr) {
      ++w;
      continue;
    }
    fn(w);
    w = End(doc, w) + 1;
  }
}

void CollectAncestors(const Document& doc, Pre v,
                      std::vector<Pre>* chain) {
  // Climb levels via backwards scan; chain is emitted deepest-first.
  Pre cur = v;
  Pre parent;
  while (doc.Parent(cur, &parent)) {
    chain->push_back(parent);
    cur = parent;
  }
}

// Chunk sizing. Fixed constants (never a function of the thread count)
// so chunk boundaries — and the chunk-ordered result concatenation —
// are identical at every pool size.
constexpr size_t kScanGrain = 8192;  // encoding rows per region chunk
constexpr size_t kCtxGrain = 1024;   // contexts per local-axis chunk

// The region axes scan pre ranges that pruning makes disjoint per run;
// every other axis does a bounded amount of work per context.
bool IsRegionAxis(Axis a) {
  return a == Axis::kDescendant || a == Axis::kDescendantOrSelf ||
         a == Axis::kFollowing || a == Axis::kPreceding;
}

// Whether contexts a and b share an iter and a fragment.
bool SameGroup(const IterNodes& in, size_t a, size_t b) {
  return in.iter[a] == in.iter[b] &&
         RefFrag(in.node[a]) == RefFrag(in.node[b]);
}

NodeRef FragBase(NodeRef r) { return MakeRef(RefFrag(r), 0); }

// Resolves fragments along a relation, calling the FragmentFn only when
// the fragment changes.
class FragCursor {
 public:
  explicit FragCursor(const FragmentFn& fn) : fn_(fn) {}
  const Fragment& At(uint32_t id) {
    if (!valid_ || id != id_) {
      cur_ = fn_(id);
      id_ = id;
      valid_ = true;
    }
    return cur_;
  }

 private:
  const FragmentFn& fn_;
  Fragment cur_;
  uint32_t id_ = 0;
  bool valid_ = false;
};

// One chunk's output: the result pres, and for each stretch of them
// the (iter, fragment) they belong to. The scans write 4 bytes per
// result, as a single-sequence join does; the (iter, node) rows are
// spelled out once, when the chunks are concatenated.
struct Part {
  struct Piece {
    int64_t iter;
    NodeRef base;  // MakeRef(fragment, 0)
    size_t end;    // the stretch ends at pre[end - 1]
  };
  std::vector<Pre> pre;
  std::vector<Piece> pieces;

  // Assigns the pres appended since the last call to (iter, base).
  void Close(int64_t iter, NodeRef base) {
    if (!pieces.empty() && pieces.back().iter == iter &&
        pieces.back().base == base) {
      pieces.back().end = pre.size();
    } else if (pre.size() > (pieces.empty() ? 0 : pieces.back().end)) {
      pieces.push_back({iter, base, pre.size()});
    }
  }
};

// Concatenate per-chunk outputs in chunk order.
void ConcatParts(const std::vector<Part>& parts, IterNodes* out) {
  size_t total = out->size();
  for (const Part& p : parts) total += p.pre.size();
  out->iter.reserve(total);
  out->node.reserve(total);
  for (const Part& p : parts) {
    size_t k = 0;
    for (const Part::Piece& pc : p.pieces) {
      out->iter.insert(out->iter.end(), pc.end - k, pc.iter);
      for (; k < pc.end; ++k) out->node.push_back(pc.base | p.pre[k]);
    }
  }
}

// Put each iteration's slice of out[from, end) into document order,
// dropping repeated nodes when `dedup`.
void SortIterSlices(IterNodes* out, size_t from, bool dedup) {
  std::vector<int64_t>& it = out->iter;
  std::vector<NodeRef>& nd = out->node;
  const size_t n = it.size();
  size_t w = from;
  for (size_t a = from; a < n;) {
    size_t b = a + 1;
    while (b < n && it[b] == it[a]) ++b;
    auto first = nd.begin() + static_cast<ptrdiff_t>(a);
    auto last = nd.begin() + static_cast<ptrdiff_t>(b);
    if (!std::is_sorted(first, last)) std::sort(first, last);
    if (dedup) {
      const size_t w0 = w;
      for (size_t k = a; k < b; ++k) {
        if (w > w0 && nd[w - 1] == nd[k]) continue;
        it[w] = it[k];
        nd[w] = nd[k];
        ++w;
      }
    }
    a = b;
  }
  if (dedup) {
    it.resize(w);
    nd.resize(w);
  }
}

// The previous context of k's run that ancestor pruning keeps: a
// context is pruned when the next one of its run lies in its subtree.
// A pruned stretch is a nested chain, so the walk is at most the tree's
// depth long.
bool PrevKept(const IterNodes& in, size_t k, const Document& doc,
              bool orself, Pre* prev) {
  for (size_t j = k; j-- > 0 && SameGroup(in, j, k);) {
    const Pre v = RefPre(in.node[j]);
    if (orself || RefPre(in.node[j + 1]) > End(doc, v)) {
      *prev = v;
      return true;
    }
  }
  return false;
}

// Joins contexts [lo, hi) of a local axis into `dst`. Every context's
// work depends only on the input relation, so a run split across
// chunks evaluates exactly as it would whole.
void LocalChunk(const IterNodes& in, size_t lo, size_t hi,
                const FragmentFn& frags, Axis axis, const NodeTest& test,
                Part* dst, StaircaseStats* st) {
  FragCursor fc(frags);
  const bool orself = axis == Axis::kAncestorOrSelf;
  // Ancestor axes: the previous kept context of the current run. The
  // climb from a kept context stops at the first ancestor at or before
  // it — that ancestor and all above it were emitted from there — so
  // consecutive contexts walk disjoint pre ranges: O(doc) per run.
  bool have_prev = false;
  Pre prev = 0;
  if ((axis == Axis::kAncestor || orself) && lo > 0) {
    have_prev = PrevKept(in, lo, *fc.At(RefFrag(in.node[lo])).doc, orself,
                         &prev);
  }
  size_t scanned = 0;
  for (size_t k = lo; k < hi; ++k) {
    const NodeRef ref = in.node[k];
    const Document& doc = *fc.At(RefFrag(ref)).doc;
    const Pre v = RefPre(ref);
    auto emit = [&](Pre r) { dst->pre.push_back(r); };
    switch (axis) {
      case Axis::kSelf:
        // self::node() on an attribute context selects the attribute.
        if (doc.IsAttr(v)) {
          if (test.kind == NodeTest::Kind::kAnyKind) emit(v);
        } else if (MatchesTest(doc, v, axis, test)) {
          emit(v);
        }
        ++scanned;
        break;
      case Axis::kAttribute: {
        // Contexts are distinct nodes, so their attribute lists are
        // disjoint and already in document order.
        const Pre end = End(doc, v);
        for (Pre a = v + 1; a <= end && doc.kind(a) == NodeKind::kAttr &&
                            doc.level(a) == doc.level(v) + 1;
             ++a) {
          ++scanned;
          if (MatchesTest(doc, a, axis, test)) emit(a);
        }
        break;
      }
      case Axis::kChild:
        // A node has one parent, so child lists are disjoint; nested
        // contexts interleave them (sorted afterwards).
        ForEachChild(doc, v, [&](Pre w) {
          ++scanned;
          if (MatchesTest(doc, w, axis, test)) emit(w);
        });
        break;
      case Axis::kParent: {
        Pre p;
        if (doc.Parent(v, &p) && MatchesTest(doc, p, axis, test)) emit(p);
        break;
      }
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        if (k > lo && !SameGroup(in, k - 1, k)) have_prev = false;
        // Pruning: a context that is an ancestor of the next context
        // of its run contributes only ancestors that one contributes
        // too (sorted input: covering contexts are adjacent).
        if (!orself && k + 1 < in.size() && SameGroup(in, k, k + 1) &&
            RefPre(in.node[k + 1]) <= End(doc, v)) {
          ++st->contexts_pruned;
          break;
        }
        if (orself && MatchesTest(doc, v, axis, test)) emit(v);
        Pre cur = v;
        Pre parent;
        while (doc.Parent(cur, &parent)) {
          ++scanned;
          if (MatchesTest(doc, parent, axis, test)) emit(parent);
          // At or below the previous context the chain is shared (the
          // per-iteration dedup drops the one overlapping node).
          if (have_prev && parent <= prev) break;
          cur = parent;
        }
        have_prev = true;
        prev = v;
        break;
      }
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling: {
        // Sibling sets of sibling contexts overlap (deduplicated
        // afterwards).
        if (doc.IsAttr(v)) break;  // attributes have no siblings
        Pre p;
        if (!doc.Parent(v, &p)) break;
        const bool following = axis == Axis::kFollowingSibling;
        ForEachChild(doc, p, [&](Pre w) {
          ++scanned;
          if ((following ? w > v : w < v) && MatchesTest(doc, w, axis, test)) {
            emit(w);
          }
        });
        break;
      }
      default:
        assert(false && "region axis in LocalChunk");
    }
    dst->Close(in.iter[k], FragBase(ref));
  }
  st->contexts_in += hi - lo;
  st->nodes_scanned += scanned;
}

void LocalJoin(const IterNodes& in, const FragmentFn& frags, Axis axis,
               const NodeTest& test, IterNodes* out, StaircaseStats* st,
               ThreadPool* tp, const StopFn& stop) {
  const size_t from = out->size();
  const size_t chunks = ThreadPool::NumChunks(in.size(), kCtxGrain);
  std::vector<Part> parts(chunks);
  std::vector<StaircaseStats> part_st(chunks);
  ParallelFor(tp, in.size(), kCtxGrain, [&](size_t c, size_t lo, size_t hi) {
    if (stop && stop()) return;
    LocalChunk(in, lo, hi, frags, axis, test, &parts[c], &part_st[c]);
  });
  for (const StaircaseStats& s : part_st) st->Merge(s);
  ConcatParts(parts, out);
  switch (axis) {
    case Axis::kChild:
      SortIterSlices(out, from, /*dedup=*/false);
      break;
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      SortIterSlices(out, from, /*dedup=*/true);
      break;
    default:  // self, attribute: already in document order per run
      break;
  }
}

// One pre range [lo, hi] a region axis scans for one run, at `flat` in
// the flat row space of all runs' ranges.
struct Segment {
  int64_t iter;
  NodeRef base;
  const Document* doc;
  // Non-null: read the tag's path partitions instead of the encoding.
  const xml::PathSummary* summary;
  const std::vector<int32_t>* paths;
  Pre lo, hi;
  // Preceding: the run's last context; a result's subtree ends before.
  Pre bound;
  // The range starts at the context node itself, which the scan tests
  // but does not count as scanned (descendant-or-self, no summary).
  bool self_row;
  size_t flat;
};

// The region axes: a serial pass prunes each run and lays its scan
// ranges out in one flat row space, which chunks then cut anywhere.
// Per run the ranges are disjoint and ascending, and runs follow each
// other in (iter, fragment) order, so the chunk-ordered concatenation
// is the output order — no re-sort, no dedup.
void RegionJoin(const IterNodes& in, const FragmentFn& frags, Axis axis,
                const NodeTest& test, IterNodes* out, StaircaseStats* st,
                ThreadPool* tp, const StopFn& stop) {
  static const std::vector<int32_t> kNoPaths;
  const size_t n = in.size();
  const bool orself = axis == Axis::kDescendantOrSelf;
  const bool preceding = axis == Axis::kPreceding;
  const bool one_tree = axis == Axis::kFollowing || preceding;
  std::vector<Segment> segs;
  size_t total = 0;
  FragCursor fc(frags);
  for (size_t b = 0; b < n;) {
    const NodeRef base = FragBase(in.node[b]);
    const Fragment& fr = fc.At(RefFrag(base));
    const Document& doc = *fr.doc;
    const int64_t iter = in.iter[b];
    // Following and preceding stay in the tree of the run's contexts.
    Pre root = 0;
    Pre tree_end = static_cast<Pre>(-1);
    if (one_tree) {
      root = doc.TreeRoot(RefPre(in.node[b]));
      tree_end = End(doc, root);
    }
    size_t e = b + 1;
    while (e < n && SameGroup(in, b, e) && RefPre(in.node[e]) <= tree_end) {
      ++e;
    }
    // Path-partition pruning: a name test only ever matches elements
    // with that tag, and the summary's partitions list exactly those
    // pres in document order. An *empty* list (tag absent from the
    // document) still counts as pruned — the scan is skipped whole.
    const std::vector<int32_t>* tag_paths = nullptr;
    if (fr.summary != nullptr && test.kind == NodeTest::Kind::kName) {
      tag_paths = fr.summary->ElementPathsByTag(test.name);
      if (tag_paths == nullptr) tag_paths = &kNoPaths;
      st->path_partitions_pruned +=
          fr.summary->num_element_paths() - tag_paths->size();
    }
    auto add = [&](Pre lo, Pre hi, bool gather, Pre bound, bool self_row) {
      segs.push_back({iter, base, &doc, gather ? fr.summary : nullptr,
                      tag_paths, lo, hi, bound, self_row, total});
      total += static_cast<size_t>(hi - lo) + 1;
    };
    switch (axis) {
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        // Pruning: drop contexts covered by a kept context — their
        // descendants are a subset.
        //
        // With a summary each survivor picks gather or scan: the gather
        // costs one binary search per partition of the tag, so for a
        // small region over a many-partitioned tag (recursive content
        // under a tight loop) the plain scan is cheaper. Both emit the
        // same ascending sequence, so the choice is local.
        const size_t gather_floor =
            tag_paths != nullptr ? 32 * tag_paths->size() : 0;
        bool have_last = false;
        Pre last_end = 0;
        for (size_t k = b; k < e; ++k) {
          const Pre v = RefPre(in.node[k]);
          if (have_last && v <= last_end) {
            ++st->contexts_pruned;
            continue;
          }
          have_last = true;
          last_end = End(doc, v);
          const Pre lo = orself ? v : v + 1;
          if (lo > last_end) continue;
          const bool gather =
              tag_paths != nullptr &&
              static_cast<size_t>(last_end - lo) + 1 >= gather_floor;
          add(lo, last_end, gather, 0, orself && tag_paths == nullptr);
        }
        break;
      }
      case Axis::kFollowing: {
        // The union of following sets is the following set of the
        // context whose subtree ends first: one range to the end of the
        // tree.
        Pre min_end = End(doc, RefPre(in.node[b]));
        for (size_t k = b; k < e; ++k) {
          min_end = std::min(min_end, End(doc, RefPre(in.node[k])));
        }
        st->contexts_pruned += e - b - 1;
        if (tree_end > min_end) {
          add(min_end + 1, tree_end, tag_paths != nullptr, 0, false);
        }
        break;
      }
      default: {  // preceding
        // Dually, preceding of the right-most context covers the union;
        // the range starts right after the tree's document node, and a
        // row qualifies when its subtree ends before that context.
        const Pre vmax = RefPre(in.node[e - 1]);
        st->contexts_pruned += e - b - 1;
        if (vmax > root + 1) {
          add(root + 1, vmax - 1, tag_paths != nullptr, vmax, false);
        }
        break;
      }
    }
    b = e;
  }
  st->contexts_in += n;

  const size_t chunks = ThreadPool::NumChunks(total, kScanGrain);
  std::vector<Part> parts(chunks);
  std::vector<size_t> scanned(chunks, 0);
  ParallelFor(tp, total, kScanGrain, [&](size_t c, size_t lo, size_t hi) {
    if (stop && stop()) return;
    Part& dst = parts[c];
    std::vector<Pre>& res = dst.pre;
    std::vector<Pre> cand;
    size_t s = static_cast<size_t>(
        std::upper_bound(segs.begin(), segs.end(), lo,
                         [](size_t f, const Segment& g) { return f < g.flat; }) -
        segs.begin() - 1);
    for (size_t f = lo; f < hi; ++s) {
      const Segment& g = segs[s];
      const size_t f_end =
          std::min(hi, g.flat + static_cast<size_t>(g.hi - g.lo) + 1);
      const Pre a = g.lo + static_cast<Pre>(f - g.flat);
      const Pre z = g.lo + static_cast<Pre>(f_end - 1 - g.flat);
      const Document& doc = *g.doc;
      const Pre bound = g.bound;
      if (g.summary != nullptr && !preceding) {
        scanned[c] += g.summary->GatherPartitions(*g.paths, a, z, &res);
      } else if (g.summary != nullptr) {
        cand.clear();
        scanned[c] += g.summary->GatherPartitions(*g.paths, a, z, &cand);
        for (Pre w : cand) {
          if (End(doc, w) < bound) res.push_back(w);
        }
      } else if (preceding) {
        for (Pre w = a; w <= z; ++w) {
          if (End(doc, w) < bound && MatchesTest(doc, w, axis, test)) {
            res.push_back(w);
          }
        }
        scanned[c] += f_end - f;
      } else {
        for (Pre w = a; w <= z; ++w) {
          if (MatchesTest(doc, w, axis, test)) res.push_back(w);
        }
        scanned[c] += f_end - f - (g.self_row && f == g.flat ? 1 : 0);
      }
      dst.Close(g.iter, g.base);
      f = f_end;
    }
  });
  for (size_t s : scanned) st->nodes_scanned += s;
  ConcatParts(parts, out);
}

}  // namespace

void NaiveStep(const Document& doc, Pre root, Pre v, Axis axis,
               const NodeTest& test, std::vector<Pre>* out) {
  switch (axis) {
    case Axis::kSelf: {
      // self::node() on an attribute context selects the attribute.
      if (doc.IsAttr(v)) {
        if (test.kind == NodeTest::Kind::kAnyKind) out->push_back(v);
      } else if (MatchesTest(doc, v, axis, test)) {
        out->push_back(v);
      }
      return;
    }
    case Axis::kAttribute: {
      Pre end = End(doc, v);
      for (Pre a = v + 1; a <= end && doc.kind(a) == NodeKind::kAttr &&
                          doc.level(a) == doc.level(v) + 1;
           ++a) {
        if (MatchesTest(doc, a, axis, test)) out->push_back(a);
      }
      return;
    }
    case Axis::kChild: {
      ForEachChild(doc, v, [&](Pre w) {
        if (MatchesTest(doc, w, axis, test)) out->push_back(w);
      });
      return;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (axis == Axis::kDescendantOrSelf &&
          MatchesTest(doc, v, axis, test)) {
        out->push_back(v);
      }
      Pre end = End(doc, v);
      for (Pre w = v + 1; w <= end; ++w) {
        if (MatchesTest(doc, w, axis, test)) out->push_back(w);
      }
      return;
    }
    case Axis::kParent: {
      Pre p;
      if (doc.Parent(v, &p) && MatchesTest(doc, p, axis, test)) {
        out->push_back(p);
      }
      return;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      std::vector<Pre> chain;
      if (axis == Axis::kAncestorOrSelf) chain.push_back(v);
      CollectAncestors(doc, v, &chain);
      std::reverse(chain.begin(), chain.end());
      for (Pre a : chain) {
        if (MatchesTest(doc, a, axis, test)) out->push_back(a);
      }
      return;
    }
    case Axis::kFollowing: {
      const Pre last = End(doc, root);
      for (Pre w = End(doc, v) + 1; w <= last; ++w) {
        if (MatchesTest(doc, w, axis, test)) out->push_back(w);
      }
      return;
    }
    case Axis::kPreceding: {
      for (Pre w = root + 1; w < v; ++w) {
        if (End(doc, w) < v && MatchesTest(doc, w, axis, test)) {
          out->push_back(w);
        }
      }
      return;
    }
    case Axis::kFollowingSibling: {
      if (doc.IsAttr(v)) return;  // attributes have no siblings
      Pre p;
      if (!doc.Parent(v, &p)) return;
      ForEachChild(doc, p, [&](Pre w) {
        if (w > v && MatchesTest(doc, w, axis, test)) out->push_back(w);
      });
      return;
    }
    case Axis::kPrecedingSibling: {
      if (doc.IsAttr(v)) return;
      Pre p;
      if (!doc.Parent(v, &p)) return;
      ForEachChild(doc, p, [&](Pre w) {
        if (w < v && MatchesTest(doc, w, axis, test)) out->push_back(w);
      });
      return;
    }
  }
}

void StaircaseJoin(const IterNodes& contexts, const FragmentFn& frags,
                   Axis axis, const NodeTest& test, IterNodes* out,
                   StaircaseStats* stats, ThreadPool* tp,
                   const StopFn& stop) {
  StaircaseStats local;
  StaircaseStats& st = stats ? *stats : local;
  const size_t from = out->size();
  if (IsRegionAxis(axis)) {
    RegionJoin(contexts, frags, axis, test, out, &st, tp, stop);
  } else {
    LocalJoin(contexts, frags, axis, test, out, &st, tp, stop);
  }
  st.results += out->size() - from;
}

void StaircaseJoin(const Document& doc, const std::vector<Pre>& contexts,
                   Axis axis, const NodeTest& test, std::vector<Pre>* out,
                   StaircaseStats* stats, ThreadPool* tp,
                   const xml::PathSummary* summary) {
  IterNodes in;
  in.iter.assign(contexts.size(), 0);
  in.node.assign(contexts.begin(), contexts.end());  // fragment 0
  IterNodes res;
  StaircaseJoin(
      in, [&](uint32_t) { return Fragment{&doc, summary}; }, axis, test,
      &res, stats, tp);
  out->reserve(out->size() + res.size());
  for (NodeRef r : res.node) out->push_back(RefPre(r));
}

void NaiveJoin(const IterNodes& contexts, const FragmentFn& frags,
               Axis axis, const NodeTest& test, IterNodes* out) {
  const size_t from = out->size();
  FragCursor fc(frags);
  std::vector<Pre> res;
  for (size_t k = 0; k < contexts.size(); ++k) {
    const NodeRef ref = contexts.node[k];
    const Document& doc = *fc.At(RefFrag(ref)).doc;
    const Pre v = RefPre(ref);
    res.clear();
    NaiveStep(doc, doc.TreeRoot(v), v, axis, test, &res);
    for (Pre r : res) out->Add(contexts.iter[k], FragBase(ref) | r);
  }
  SortIterSlices(out, from, /*dedup=*/true);
}

}  // namespace pathfinder::accel
