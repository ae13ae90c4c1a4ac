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

// Morsel sizing for parallel staircase scans. Fixed constants (never a
// function of the thread count) so chunk boundaries — and the chunk-
// ordered result concatenation — are identical at every pool size.
constexpr size_t kScanGrain = 8192;  // encoding rows per morsel
constexpr size_t kCtxGrain = 1024;   // context nodes per morsel

// Concatenate per-chunk result vectors in chunk order. For ascending,
// disjoint chunk ranges this IS document order — no re-sort needed.
void ConcatChunks(const std::vector<std::vector<Pre>>& chunk_out,
                  std::vector<Pre>* out) {
  size_t total = 0;
  for (const auto& c : chunk_out) total += c.size();
  out->reserve(out->size() + total);
  for (const auto& c : chunk_out) {
    out->insert(out->end(), c.begin(), c.end());
  }
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

void StaircaseJoin(const Document& doc, Pre root,
                   const std::vector<Pre>& contexts, Axis axis,
                   const NodeTest& test, std::vector<Pre>* out,
                   StaircaseStats* stats, ThreadPool* tp,
                   const xml::PathSummary* summary) {
  StaircaseStats local;
  StaircaseStats& st = stats ? *stats : local;
  st.contexts_in += contexts.size();
  if (contexts.empty()) return;
  size_t out_start = out->size();

  // Path-partition pruning: a name test on a region-scanning axis only
  // ever matches elements with that tag, and the summary's partitions
  // list exactly those pres in document order. `tag_paths` is non-null
  // when the pruned variant applies; an *empty* list (tag absent from
  // the document) still counts as pruned — the scan is skipped whole.
  static const std::vector<int32_t> kNoPaths;
  const std::vector<int32_t>* tag_paths = nullptr;
  if (summary != nullptr && test.kind == NodeTest::Kind::kName &&
      (axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf ||
       axis == Axis::kFollowing || axis == Axis::kPreceding)) {
    tag_paths = summary->ElementPathsByTag(test.name);
    if (tag_paths == nullptr) tag_paths = &kNoPaths;
    st.path_partitions_pruned +=
        summary->num_element_paths() - tag_paths->size();
  }

  switch (axis) {
    case Axis::kSelf: {
      auto test_one = [&](Pre v, std::vector<Pre>* dst) {
        if (doc.IsAttr(v)) {
          if (test.kind == NodeTest::Kind::kAnyKind) dst->push_back(v);
        } else if (MatchesTest(doc, v, axis, test)) {
          dst->push_back(v);
        }
      };
      if (tp != nullptr && contexts.size() >= 2 * kCtxGrain) {
        size_t chunks = ThreadPool::NumChunks(contexts.size(), kCtxGrain);
        std::vector<std::vector<Pre>> chunk_out(chunks);
        ParallelFor(tp, contexts.size(), kCtxGrain,
                    [&](size_t c, size_t lo, size_t hi) {
                      for (size_t k = lo; k < hi; ++k) {
                        test_one(contexts[k], &chunk_out[c]);
                      }
                    });
        ConcatChunks(chunk_out, out);
      } else {
        for (Pre v : contexts) test_one(v, out);
      }
      st.nodes_scanned += contexts.size();
      break;
    }
    case Axis::kAttribute: {
      // Contexts are distinct nodes, so their attribute lists are
      // disjoint and already globally pre-ordered — context-chunked
      // evaluation concatenates back in document order.
      auto scan_one = [&](Pre v, std::vector<Pre>* dst, size_t* scanned) {
        Pre end = End(doc, v);
        for (Pre a = v + 1; a <= end && doc.kind(a) == NodeKind::kAttr &&
                            doc.level(a) == doc.level(v) + 1;
             ++a) {
          ++*scanned;
          if (MatchesTest(doc, a, axis, test)) dst->push_back(a);
        }
      };
      if (tp != nullptr && contexts.size() >= 2 * kCtxGrain) {
        size_t chunks = ThreadPool::NumChunks(contexts.size(), kCtxGrain);
        std::vector<std::vector<Pre>> chunk_out(chunks);
        std::vector<size_t> scanned(chunks, 0);
        ParallelFor(tp, contexts.size(), kCtxGrain,
                    [&](size_t c, size_t lo, size_t hi) {
                      for (size_t k = lo; k < hi; ++k) {
                        scan_one(contexts[k], &chunk_out[c], &scanned[c]);
                      }
                    });
        for (size_t s : scanned) st.nodes_scanned += s;
        ConcatChunks(chunk_out, out);
      } else {
        size_t scanned = 0;
        for (Pre v : contexts) scan_one(v, out, &scanned);
        st.nodes_scanned += scanned;
      }
      break;
    }
    case Axis::kChild: {
      // A node has exactly one parent, so per-context child lists are
      // disjoint; nested contexts interleave, so sort at the end (the
      // sort also erases any chunk-boundary effects of the parallel
      // path — the emitted multiset is order-independent).
      auto scan_one = [&](Pre v, std::vector<Pre>* dst, size_t* scanned) {
        ForEachChild(doc, v, [&](Pre w) {
          ++*scanned;
          if (MatchesTest(doc, w, axis, test)) dst->push_back(w);
        });
      };
      if (tp != nullptr && contexts.size() >= 2 * kCtxGrain) {
        size_t chunks = ThreadPool::NumChunks(contexts.size(), kCtxGrain);
        std::vector<std::vector<Pre>> chunk_out(chunks);
        std::vector<size_t> scanned(chunks, 0);
        ParallelFor(tp, contexts.size(), kCtxGrain,
                    [&](size_t c, size_t lo, size_t hi) {
                      for (size_t k = lo; k < hi; ++k) {
                        scan_one(contexts[k], &chunk_out[c], &scanned[c]);
                      }
                    });
        for (size_t s : scanned) st.nodes_scanned += s;
        ConcatChunks(chunk_out, out);
      } else {
        size_t scanned = 0;
        for (Pre v : contexts) scan_one(v, out, &scanned);
        st.nodes_scanned += scanned;
      }
      std::sort(out->begin() + static_cast<ptrdiff_t>(out_start),
                out->end());
      break;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      // Pruning: drop contexts covered by a kept context — their
      // descendants are a subset. The survivors' regions are disjoint,
      // so one ascending scan per region emits each result once, in
      // global document order.
      //
      // The pruning pass is serial (linear in the context count); the
      // scans parallelize over a FLAT index space concatenating the
      // survivors' ranges, so a single huge subtree still splits into
      // many morsels. Chunk-ordered concatenation = document order.
      const bool orself = axis == Axis::kDescendantOrSelf;
      std::vector<Pre> vs;
      Pre last_end = 0;
      bool have_last = false;
      for (Pre v : contexts) {
        if (have_last && v <= last_end) {
          ++st.contexts_pruned;
          continue;
        }
        vs.push_back(v);
        last_end = End(doc, v);
        have_last = true;
      }
      if (tag_paths != nullptr) {
        // Pruned variant: every node with the tested tag inside a
        // survivor's region is a result, and the tag's partitions hold
        // exactly those pres — binary-search each partition to the
        // region and merge. Survivor regions are disjoint and
        // ascending, so per-survivor emission concatenates in document
        // order, byte-identical to the full scan.
        //
        // Per-survivor cutoff: the gather costs one binary search per
        // partition of the tag, so for a small region over a
        // many-partitioned tag (recursive content under a tight loop)
        // the plain region scan is cheaper. Both emit the identical
        // ascending sequence for the region, so the choice is local.
        const size_t gather_floor = 32 * tag_paths->size();
        size_t scanned = 0;
        for (Pre v : vs) {
          Pre hi = End(doc, v);
          Pre lo = orself ? v : v + 1;
          if (lo > hi) continue;
          size_t region = static_cast<size_t>(hi - lo) + 1;
          if (region >= gather_floor) {
            scanned += summary->GatherPartitions(*tag_paths, lo, hi, out);
          } else {
            for (Pre w = lo; w <= hi; ++w) {
              if (MatchesTest(doc, w, axis, test)) out->push_back(w);
            }
            scanned += region;
          }
        }
        st.nodes_scanned += scanned;
        break;
      }
      std::vector<size_t> prefix(vs.size() + 1, 0);
      for (size_t i = 0; i < vs.size(); ++i) {
        size_t len = static_cast<size_t>(End(doc, vs[i]) - vs[i]) +
                     (orself ? 1 : 0);
        prefix[i + 1] = prefix[i] + len;
      }
      size_t total = prefix.back();
      auto node_at = [&](size_t seg, size_t off) {
        // Flat offset 0 is the context node itself for *-or-self,
        // otherwise the first descendant row.
        return static_cast<Pre>(vs[seg] + (orself ? 0 : 1) + off);
      };
      if (tp != nullptr && total >= 2 * kScanGrain) {
        size_t chunks = ThreadPool::NumChunks(total, kScanGrain);
        std::vector<std::vector<Pre>> chunk_out(chunks);
        ParallelFor(tp, total, kScanGrain,
                    [&](size_t c, size_t lo, size_t hi) {
                      std::vector<Pre>& dst = chunk_out[c];
                      size_t seg = static_cast<size_t>(
                          std::upper_bound(prefix.begin(), prefix.end(),
                                           lo) -
                          prefix.begin() - 1);
                      size_t idx = lo;
                      while (idx < hi) {
                        size_t stop = std::min(hi, prefix[seg + 1]);
                        for (size_t f = idx; f < stop; ++f) {
                          Pre w = node_at(seg, f - prefix[seg]);
                          if (MatchesTest(doc, w, axis, test)) {
                            dst.push_back(w);
                          }
                        }
                        idx = stop;
                        ++seg;
                      }
                    });
        ConcatChunks(chunk_out, out);
      } else {
        for (size_t seg = 0; seg < vs.size(); ++seg) {
          size_t len = prefix[seg + 1] - prefix[seg];
          for (size_t off = 0; off < len; ++off) {
            Pre w = node_at(seg, off);
            if (MatchesTest(doc, w, axis, test)) out->push_back(w);
          }
        }
      }
      // Rows touched = the survivors' descendant ranges (the or-self
      // test of the context node itself is not a scan).
      st.nodes_scanned += total - (orself ? vs.size() : 0);
      break;
    }
    case Axis::kParent: {
      std::vector<Pre> collected;
      for (Pre v : contexts) {
        Pre p;
        if (doc.Parent(v, &p) && MatchesTest(doc, p, axis, test)) {
          collected.push_back(p);
        }
      }
      std::sort(collected.begin(), collected.end());
      collected.erase(std::unique(collected.begin(), collected.end()),
                      collected.end());
      out->insert(out->end(), collected.begin(), collected.end());
      break;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // Pruning: a context that is an ancestor of the next context
      // contributes only ancestors the next context contributes too.
      // (Sorted input: covering contexts are adjacent.)
      std::vector<Pre> kept;
      for (size_t i = 0; i < contexts.size(); ++i) {
        if (axis == Axis::kAncestor && i + 1 < contexts.size() &&
            contexts[i + 1] <= End(doc, contexts[i])) {
          ++st.contexts_pruned;
          continue;
        }
        kept.push_back(contexts[i]);
      }
      // Climb from each kept context; stop at the first ancestor with
      // pre <= the previous kept context — that ancestor (and everything
      // above) covers the previous context too and was already emitted.
      // Climbing stops *eagerly* at the boundary, so consecutive
      // contexts walk disjoint pre ranges: O(doc) total.
      std::vector<Pre> collected;
      for (size_t i = 0; i < kept.size(); ++i) {
        Pre v = kept[i];
        if (axis == Axis::kAncestorOrSelf &&
            MatchesTest(doc, v, axis, test)) {
          collected.push_back(v);
        }
        Pre boundary = i == 0 ? 0 : kept[i - 1];
        Pre cur = v;
        Pre parent;
        while (doc.Parent(cur, &parent)) {
          ++st.nodes_scanned;
          if (MatchesTest(doc, parent, axis, test)) {
            collected.push_back(parent);
          }
          // At or below the boundary the remaining chain is shared with
          // the previous context (sort+unique below deduplicates the
          // one overlapping node).
          if (i > 0 && parent <= boundary) break;
          cur = parent;
        }
      }
      std::sort(collected.begin(), collected.end());
      collected.erase(std::unique(collected.begin(), collected.end()),
                      collected.end());
      out->insert(out->end(), collected.begin(), collected.end());
      break;
    }
    case Axis::kFollowing: {
      // The union of following sets is the following set of the context
      // whose subtree ends first: a single scan to the end of the
      // contexts' tree suffices — and a single contiguous pre range
      // chunks trivially.
      Pre min_end = End(doc, contexts[0]);
      for (Pre v : contexts) min_end = std::min(min_end, End(doc, v));
      st.contexts_pruned += contexts.size() - 1;
      const Pre first = min_end + 1;
      const Pre last = End(doc, root);  // inclusive
      assert(contexts.front() >= root && contexts.back() <= last);
      if (tag_paths != nullptr) {
        if (last >= first) {
          st.nodes_scanned +=
              summary->GatherPartitions(*tag_paths, first, last, out);
        }
        break;
      }
      size_t n = last >= first ? static_cast<size_t>(last - first) + 1 : 0;
      if (tp != nullptr && n >= 2 * kScanGrain) {
        size_t chunks = ThreadPool::NumChunks(n, kScanGrain);
        std::vector<std::vector<Pre>> chunk_out(chunks);
        ParallelFor(tp, n, kScanGrain,
                    [&](size_t c, size_t lo, size_t hi) {
                      for (size_t k = lo; k < hi; ++k) {
                        Pre w = first + static_cast<Pre>(k);
                        if (MatchesTest(doc, w, axis, test)) {
                          chunk_out[c].push_back(w);
                        }
                      }
                    });
        ConcatChunks(chunk_out, out);
      } else {
        for (Pre w = first; w <= last; ++w) {
          if (MatchesTest(doc, w, axis, test)) out->push_back(w);
        }
      }
      st.nodes_scanned += n;
      break;
    }
    case Axis::kPreceding: {
      // Dually, preceding of the right-most context covers the union;
      // the scan starts right after the tree's document node.
      Pre vmax = contexts.back();
      st.contexts_pruned += contexts.size() - 1;
      assert(contexts.front() >= root && vmax <= End(doc, root));
      const Pre first = root + 1;
      if (tag_paths != nullptr) {
        // Candidates: tag partitions below vmax; the preceding axis
        // additionally requires the whole subtree to end before vmax
        // (ancestors of vmax are excluded by the End test).
        std::vector<Pre> cand;
        if (vmax > first) {
          summary->GatherPartitions(*tag_paths, first, vmax - 1, &cand);
        }
        st.nodes_scanned += cand.size();
        for (Pre w : cand) {
          if (End(doc, w) < vmax) out->push_back(w);
        }
        break;
      }
      size_t n = vmax > first ? static_cast<size_t>(vmax - first) : 0;
      if (tp != nullptr && n >= 2 * kScanGrain) {
        // Parallel variant: chunk the [first, vmax) pre range and test
        // End(w) < vmax per row. The serial subtree-skip walk below
        // touches the same rows; the per-row predicate form has no
        // cross-row state, so the chunks are independent and the
        // ascending concatenation equals the serial emission order.
        size_t chunks = ThreadPool::NumChunks(n, kScanGrain);
        std::vector<std::vector<Pre>> chunk_out(chunks);
        ParallelFor(tp, n, kScanGrain,
                    [&](size_t c, size_t lo, size_t hi) {
                      for (size_t k = lo; k < hi; ++k) {
                        Pre w = first + static_cast<Pre>(k);
                        if (End(doc, w) < vmax &&
                            MatchesTest(doc, w, axis, test)) {
                          chunk_out[c].push_back(w);
                        }
                      }
                    });
        ConcatChunks(chunk_out, out);
      } else {
        Pre w = first;
        while (w < vmax) {
          if (End(doc, w) < vmax) {
            // Whole subtree precedes vmax: test every node in it, then
            // skip to the next subtree (each row touched exactly once).
            Pre end = End(doc, w);
            for (Pre u = w; u <= end; ++u) {
              if (MatchesTest(doc, u, axis, test)) out->push_back(u);
            }
            w = end + 1;
          } else {
            // w is an ancestor of vmax: not preceding, descend into it.
            ++w;
          }
        }
      }
      // Both variants touch every row in [first, vmax) exactly once.
      st.nodes_scanned += n;
      break;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      // Sibling sets of sibling contexts overlap: collect + dedup.
      std::vector<Pre> collected;
      for (Pre v : contexts) {
        if (doc.IsAttr(v)) continue;
        Pre p;
        if (!doc.Parent(v, &p)) continue;
        ForEachChild(doc, p, [&](Pre w) {
          ++st.nodes_scanned;
          bool keep = axis == Axis::kFollowingSibling ? w > v : w < v;
          if (keep && MatchesTest(doc, w, axis, test)) {
            collected.push_back(w);
          }
        });
      }
      std::sort(collected.begin(), collected.end());
      collected.erase(std::unique(collected.begin(), collected.end()),
                      collected.end());
      out->insert(out->end(), collected.begin(), collected.end());
      break;
    }
  }
  st.results += out->size() - out_start;
}

}  // namespace pathfinder::accel
