#include "bat/kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "bat/item_ops.h"

namespace pathfinder::bat {

namespace {

// Morsel sizing for the operators that are NOT tuning-aware (gather,
// theta join, grouped aggregation). Fixed constants — NEVER derived
// from the thread count — so chunk boundaries, and with them every
// chunk-indexed merge, are identical at every pool size (see
// ThreadPool's determinism contract). The tuning-aware kernels obey
// the same contract with KernelTuning values in place of constants:
// chunk boundaries depend on (n, grain) only.
constexpr size_t kMorselRows = 4096;
constexpr size_t kThetaPairsPerMorsel = size_t{1} << 16;
constexpr size_t kGroupAggParRows = 8192;

// Fibonacci remix: one multiply spreads entropy into the top bits,
// which seed the equi-join's slot index.
inline uint64_t MixHash(size_t h) {
  return static_cast<uint64_t>(h) * 0x9E3779B97F4A7C15ull;
}

}  // namespace

KernelTuning KernelTuning::Clamped() const {
  KernelTuning kt = *this;
  kt.morsel_rows =
      std::clamp<uint32_t>(kt.morsel_rows, 64, uint32_t{1} << 20);
  kt.sort_chunk_rows =
      std::clamp<uint32_t>(kt.sort_chunk_rows, 256, uint32_t{1} << 22);
  return kt;
}

namespace {

// Distinct/difference keys. A row's key is the tuple of its key cells'
// fixed-width images: a type tag and the cell's 64 bits. Two images are
// equal exactly when the cells are representation-equal, which is what
// distinct/difference on surrogate columns need: doubles compare by bit
// pattern, items by kind plus raw, and cells of different column types
// never match.
struct CellImage {
  uint8_t tag;
  uint64_t bits;
  friend bool operator==(const CellImage&, const CellImage&) = default;
};

inline CellImage ImageOf(const Column& c, size_t row) {
  switch (c.type()) {
    case ColType::kInt:
      return {'i', static_cast<uint64_t>(c.ints()[row])};
    case ColType::kDbl:
      return {'d', std::bit_cast<uint64_t>(c.dbls()[row])};
    case ColType::kStr:
      return {'s', c.strs()[row]};
    case ColType::kBool:
      return {'b', c.bools()[row]};
    case ColType::kItem: {
      const Item& it = c.items()[row];
      return {static_cast<uint8_t>('A' + static_cast<int>(it.kind)), it.raw};
    }
  }
  return {0, 0};
}

// Row `ra` of columns `a` and row `rb` of columns `b` (same count) carry
// equal keys.
bool SameKey(const std::vector<const Column*>& a, size_t ra,
             const std::vector<const Column*>& b, size_t rb) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(ImageOf(*a[i], ra) == ImageOf(*b[i], rb))) return false;
  }
  return true;
}

// Key hashes of rows [0, n), one column at a time; each cell image is
// folded in through the splitmix64 finalizer, so the low bits (RowSet
// slots) and the upper half (RowSet's stored tags) are both mixed.
std::vector<uint64_t> HashKeys(const std::vector<const Column*>& cols,
                               size_t n) {
  std::vector<uint64_t> h(n, 0);
  for (const Column* c : cols) {
    for (size_t r = 0; r < n; ++r) {
      CellImage img = ImageOf(*c, r);
      uint64_t x = (h[r] + img.tag * 0x9E3779B97F4A7C15ull) ^ img.bits;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      h[r] = x ^ (x >> 31);
    }
  }
  return h;
}

// Flat open-addressing set of row indices, keyed by the rows' key
// hashes: linear probing at a load factor of at most 1/2. A slot packs
// the upper half of the row's hash with its index, so most probes that
// miss are decided without reading a column. `same(stored_row)` decides
// key equality for the row being inserted or looked up.
class RowSet {
 public:
  explicit RowSet(size_t rows)
      : mask_(std::bit_ceil(std::max<size_t>(2 * rows, 8)) - 1),
        slots_(mask_ + 1, kEmpty) {}

  // Inserts row `r` (hash `h`) unless an equal key is stored; true if
  // it was inserted.
  template <typename Same>
  bool Insert(RowIdx r, uint64_t h, const Same& same) {
    size_t i = Probe(h, same);
    if (slots_[i] != kEmpty) return false;
    slots_[i] = (h & kHashHalf) | r;
    return true;
  }

  template <typename Same>
  bool Contains(uint64_t h, const Same& same) const {
    return slots_[Probe(h, same)] != kEmpty;
  }

 private:
  static constexpr uint64_t kHashHalf = ~uint64_t{0} << 32;
  // No row reaches index 2^32 - 1, so no stored slot is all ones.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  // The slot holding an equal key, or the empty slot ending the probe.
  template <typename Same>
  size_t Probe(uint64_t h, const Same& same) const {
    const uint64_t half = h & kHashHalf;
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      uint64_t s = slots_[i];
      if (s == kEmpty) return i;
      if ((s & kHashHalf) == half && same(static_cast<RowIdx>(s))) return i;
    }
  }

  size_t mask_;
  std::vector<uint64_t> slots_;
};

Result<std::vector<const Column*>> ResolveCols(
    const Table& t, const std::vector<ColId>& names) {
  std::vector<const Column*> cols;
  if (names.empty()) {
    for (size_t i = 0; i < t.num_cols(); ++i) cols.push_back(t.col(i).get());
    return cols;
  }
  for (ColId n : names) {
    int i = t.FindCol(n);
    if (i < 0) {
      return Status::Internal("kernel: no column '" +
                              std::string(ColName(n)) + "'");
    }
    cols.push_back(t.col(static_cast<size_t>(i)).get());
  }
  return cols;
}

// Typed three-way compares of two cells, one overload per column
// payload type. DBL puts NaN first, as ItemOrder does; STR compares the
// pooled strings; ITEM is ItemOrder, with its node case inline.
inline int Cmp3(int64_t a, int64_t b, const StringPool&) {
  return (a > b) - (a < b);
}
inline int Cmp3(double a, double b, const StringPool&) {
  if (std::isnan(a) || std::isnan(b)) {
    return static_cast<int>(std::isnan(b)) - std::isnan(a);
  }
  return (a > b) - (a < b);
}
inline int Cmp3(StrId a, StrId b, const StringPool& pool) {
  if (a == b) return 0;
  const int c = pool.Get(a).compare(pool.Get(b));
  return (c > 0) - (c < 0);
}
inline int Cmp3(uint8_t a, uint8_t b, const StringPool&) {
  return (a > b) - (a < b);
}
inline int Cmp3(const Item& a, const Item& b, const StringPool& pool) {
  if (a.IsNode() && b.IsNode()) return (a.raw > b.raw) - (a.raw < b.raw);
  return ItemOrder(a, b, pool);
}

// A sort key resolved once: its column and direction.
struct SortKey {
  const Column* col;
  bool desc;
};

Result<std::vector<SortKey>> ResolveKeys(const Table& t,
                                         const std::vector<ColId>& names,
                                         const std::vector<uint8_t>& desc) {
  PF_ASSIGN_OR_RETURN(std::vector<const Column*> cols, ResolveCols(t, names));
  std::vector<SortKey> keys;
  for (size_t k = 0; k < cols.size(); ++k) {
    keys.push_back({cols[k], k < desc.size() && desc[k] != 0});
  }
  return keys;
}

// Three-way comparison of rows a and b under the first `nkeys` keys;
// 0 when they tie on all of them.
inline int CompareKeys(const std::vector<SortKey>& keys, size_t nkeys,
                       size_t a, size_t b, const StringPool& pool) {
  for (size_t k = 0; k < nkeys; ++k) {
    const Column& col = *keys[k].col;
    int c;
    if (col.type() == ColType::kInt) {
      const int64_t* v = col.ints().data();
      c = (v[a] > v[b]) - (v[a] < v[b]);
    } else {
      c = Column::Visit(
          col.type(), [&](const auto& v) { return Cmp3(v[a], v[b], pool); },
          col);
    }
    if (c != 0) return keys[k].desc ? -c : c;
  }
  return 0;
}

// The strict row order of keys that are all INT (iter, ord, pos, and
// the ranks an order by sorts on), unrolled over N keys.
template <size_t N>
struct IntKeysLess {
  explicit IntKeysLess(const std::vector<SortKey>& keys) {
    for (size_t k = 0; k < N; ++k) {
      v[k] = keys[k].col->ints().data();
      desc[k] = keys[k].desc;
    }
  }

  bool operator()(RowIdx a, RowIdx b) const {
    for (size_t k = 0; k < N; ++k) {
      const int64_t x = v[k][a], y = v[k][b];
      if (x != y) return (x < y) != desc[k];
    }
    return false;
  }

  std::array<const int64_t*, N> v;
  std::array<bool, N> desc;
};

// MergeRuns under the strict row order of `keys`: one to three INT keys
// compare unrolled, any other key list key by key.
IdxVec MergeKeyRuns(const std::vector<uint8_t>& flags,
                    const std::vector<SortKey>& keys, const StringPool& pool,
                    ThreadPool* tp, const KernelTuning& kt) {
  auto merge = [&](const auto& less) {
    return sort_internal::MergeRuns(flags, less, tp, kt);
  };
  const bool all_int =
      std::all_of(keys.begin(), keys.end(), [](const SortKey& k) {
        return k.col->type() == ColType::kInt;
      });
  if (all_int && keys.size() == 1) return merge(IntKeysLess<1>(keys));
  if (all_int && keys.size() == 2) return merge(IntKeysLess<2>(keys));
  if (all_int && keys.size() == 3) return merge(IntKeysLess<3>(keys));
  return merge([&](RowIdx a, RowIdx b) {
    return CompareKeys(keys, keys.size(), a, b, pool) < 0;
  });
}

// Pair flags of the typed run detection, beside sort_internal::kRunStart:
// kInOrder when row i - 1 sorts strictly before row i, and kNewPart
// when the partition keys alone tell the two rows apart.
constexpr uint8_t kInOrder = 2;
constexpr uint8_t kNewPart = 4;
constexpr uint8_t kDecided = sort_internal::kRunStart | kInOrder;

// Decides by one key column `v` the pairs (i - 1, i), i in [lo, hi),
// that the earlier keys tied on; returns how many of them descend. The
// first key writes every pair's flags. The last partition key
// (kPartEnd) also flags the partition boundaries and, given `num`,
// numbers the rows from them: num[i] counts from the morsel's last
// boundary at or before i, or from lo.
template <bool kFirst, bool kPartEnd, typename V>
size_t DecidePairs(const V& v, bool desc, size_t lo, size_t hi,
                   const StringPool& pool, uint8_t* fl, int64_t* num) {
  const int flip = desc ? -1 : 1;
  size_t descents = 0;
  int64_t count = 0;
  for (size_t i = lo; i < hi; ++i) {
    uint8_t f = kFirst ? 0 : fl[i];
    if (i > 0 && !(f & kDecided)) {
      const int c = Cmp3(v[i - 1], v[i], pool) * flip;
      f = c > 0 ? sort_internal::kRunStart : (c < 0 ? kInOrder : 0);
      descents += f & sort_internal::kRunStart;
    }
    if constexpr (kPartEnd) {
      if (i == 0 || (f & kDecided)) {
        f |= kNewPart;
        count = 0;
      }
      if (num != nullptr) num[i] = ++count;
    }
    fl[i] = f;
  }
  return descents;
}

// Flags the pairs of rows [lo, hi) one key column at a time, each key
// deciding only the pairs its predecessors tied on (DecidePairs), and
// returns the descents. The first `nparts` keys are the partition keys.
size_t ClassifyPairs(const std::vector<SortKey>& keys, size_t nparts,
                     size_t lo, size_t hi, const StringPool& pool,
                     uint8_t* fl, int64_t* num) {
  size_t descents = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    const bool first = k == 0, part_end = k + 1 == nparts;
    const bool desc = keys[k].desc;
    Column::Visit(
        keys[k].col->type(),
        [&](const auto& v) {
          descents +=
              first ? (part_end ? DecidePairs<true, true>(v, desc, lo, hi,
                                                          pool, fl, num)
                                : DecidePairs<true, false>(v, desc, lo, hi,
                                                           pool, fl, num))
                    : (part_end ? DecidePairs<false, true>(v, desc, lo, hi,
                                                           pool, fl, num)
                                : DecidePairs<false, false>(v, desc, lo, hi,
                                                            pool, fl, num));
        },
        *keys[k].col);
  }
  return descents;
}

// Row-order compaction by a 0/1 mark per row — σ's filter loop.
// MarkOffsets counts each morsel's marks and turns the counts into
// exclusive output offsets; ScatterMarked then lets every morsel write
// its marked rows into its own output slice: row order preserved, no
// inter-chunk contention.
// The scatter writes every candidate at the cursor and advances only on
// a mark (misses are overwritten by the next candidate): no per-element
// branch, contiguous writes, so both passes vectorize, and the mark
// count bound stops the loop exactly at the slice end, so no write ever
// crosses into the next chunk's slice.
std::vector<size_t> MarkOffsets(const std::vector<uint8_t>& marks,
                                size_t morsel, ThreadPool* tp) {
  size_t chunks = ThreadPool::NumChunks(marks.size(), morsel);
  std::vector<size_t> offs(chunks + 1, 0);
  ParallelFor(tp, marks.size(), morsel, [&](size_t c, size_t lo, size_t hi) {
    size_t n = 0;
    for (size_t i = lo; i < hi; ++i) n += marks[i] ? 1 : 0;
    offs[c + 1] = n;
  });
  for (size_t c = 0; c < chunks; ++c) offs[c + 1] += offs[c];
  return offs;
}

// Writes value(i) of every marked row i, in row order, into *dst.
template <typename T, typename Value>
void ScatterMarked(const std::vector<uint8_t>& marks,
                   const std::vector<size_t>& offs, size_t morsel,
                   ThreadPool* tp, std::vector<T>* dst, const Value& value) {
  dst->resize(offs.back());
  ParallelFor(tp, marks.size(), morsel, [&](size_t c, size_t lo, size_t) {
    size_t w = offs[c];
    const size_t wend = offs[c + 1];
    for (size_t i = lo; w < wend; ++i) {
      (*dst)[w] = value(i);
      w += marks[i] ? 1 : 0;
    }
  });
}

// Positional fetch: result[i] = c[idx[i]]  (MonetDB leftfetchjoin).
ColumnPtr Gather(const Column& c, const IdxVec& idx, ThreadPool* tp) {
  // Exact-size allocation + positional writes: each morsel fills its
  // own disjoint slice of the result.
  auto out = std::make_shared<Column>(c.type());
  Column::Visit(
      c.type(),
      [&](const auto& src, auto& dst) {
        dst.resize(idx.size());
        ParallelFor(tp, idx.size(), kMorselRows,
                    [&](size_t, size_t lo, size_t hi) {
                      for (size_t k = lo; k < hi; ++k) dst[k] = src[idx[k]];
                    });
      },
      c, *out);
  return out;
}

}  // namespace

Table GatherTable(const Table& t, const IdxVec& idx, ThreadPool* tp) {
  // Selecting every row in order (a sort of ordered rows, a δ that
  // drops nothing) shares the columns, by GatherPairs' rule.
  bool identity = idx.size() == t.rows();
  for (size_t i = 0; identity && i < idx.size(); ++i) identity = idx[i] == i;
  Table out;
  for (size_t i = 0; i < t.num_cols(); ++i) {
    out.AddCol(t.name(i), identity ? t.col(i) : Gather(*t.col(i), idx, tp));
  }
  return out;
}

Table FilterGather(const Table& t, const Column& pred, ThreadPool* tp,
                   const KernelTuning& kt) {
  assert(pred.type() == ColType::kBool);
  const auto& b = pred.bools();
  const size_t morsel = kt.Clamped().morsel_rows;
  // The offsets size every column's output exactly; the surviving-row
  // positions are recomputed per column instead of being staged in an
  // index vector (cheap: the predicate scan is branch-free and stays
  // in cache per morsel).
  const std::vector<size_t> offs = MarkOffsets(b, morsel, tp);
  Table out;
  for (size_t i = 0; i < t.num_cols(); ++i) {
    const Column& c = *t.col(i);
    auto col = std::make_shared<Column>(c.type());
    Column::Visit(
        c.type(),
        [&](const auto& src, auto& dst) {
          ScatterMarked(b, offs, morsel, tp, &dst,
                        [&src](size_t r) { return src[r]; });
        },
        c, *col);
    out.AddCol(t.name(i), std::move(col));
  }
  return out;
}

namespace {

// See HashJoinPairsChunked: canonical representation for item join keys,
// mirroring ItemCompareValue's equality: numbers (and numeric-looking
// strings/untyped atomics) compare by double value, everything else by
// string identity.
Item CanonicalJoinKey(const Item& it, const StringPool& pool) {
  switch (it.kind) {
    case ItemKind::kInt:
      return Item::Dbl(static_cast<double>(it.AsInt()));
    case ItemKind::kUntyped:
    case ItemKind::kStr: {
      auto d = ItemToDouble(it, pool);
      if (d.ok()) return Item::Dbl(*d);
      return Item::Str(it.AsStr());
    }
    default:
      return it;
  }
}

// Ends a chain, and marks an empty slot, in the join's chained tables.
constexpr uint32_t kChainEnd = 0xffffffffu;

// The equi-join's one table: build rows chained per key. head[s] is the
// first build row of slot s's key, next[j] the build row after j with
// the same key. Rows are inserted in descending order and each is
// prepended, so every chain lists its key's rows ascending (the serial
// insertion order) without a tail array. Two slot functions fill it,
// chosen by the input alone: key - min (PositionalJoin: one key per
// slot, so no hash and no probing), and the mixed key hash with linear
// probing (HashJoinTyped).
struct ChainTable {
  std::vector<uint32_t> head;
  std::vector<uint32_t> next;
  uint32_t mask = 0;  // hashed slots: head.size() - 1
};

// The probe phase every slot function shares: one pair chunk per morsel
// of the left side, so chunk-ordered concatenation is the left-major
// pair order. match(i, emit) calls emit(j) for each build row j that
// matches left row i, ascending.
template <typename Match>
void ProbeMorsels(size_t nl, size_t morsel, ThreadPool* tp,
                  JoinPairChunks* out, const Match& match) {
  const size_t chunks = ThreadPool::NumChunks(nl, morsel);
  out->li.resize(chunks);
  out->ri.resize(chunks);
  ParallelFor(tp, nl, morsel, [&](size_t c, size_t lo, size_t hi) {
    IdxVec& lv = out->li[c];
    IdxVec& rv = out->ri[c];
    for (size_t i = lo; i < hi; ++i) {
      match(i, [&](RowIdx j) {
        lv.push_back(static_cast<RowIdx>(i));
        rv.push_back(j);
      });
    }
  });
}

// Positional join on INT keys (MonetDB's join on dense surrogates, the
// loop-lifted plans' iter = iter mapping joins): when the build keys
// span at most 2 * nr + 64 values, slot = key - min. The span is taken
// in unsigned arithmetic, so no key near INT64_MIN/MAX overflows; a
// probe key outside [min, max] wraps to a slot past the span. False
// (nothing emitted) when the build side is empty or its keys are
// spread wider.
bool PositionalJoin(const std::vector<int64_t>& lv,
                    const std::vector<int64_t>& rv, size_t morsel,
                    ThreadPool* tp, JoinPairChunks* out) {
  if (rv.empty()) return false;
  const auto [mn, mx] = std::minmax_element(rv.begin(), rv.end());
  const uint64_t base = static_cast<uint64_t>(*mn);
  const uint64_t span = static_cast<uint64_t>(*mx) - base;
  if (span >= 2 * static_cast<uint64_t>(rv.size()) + 64) return false;
  ChainTable t;
  t.head.assign(span + 1, kChainEnd);
  t.next.resize(rv.size());
  for (size_t j = rv.size(); j-- > 0;) {
    const uint64_t s = static_cast<uint64_t>(rv[j]) - base;
    t.next[j] = t.head[s];
    t.head[s] = static_cast<uint32_t>(j);
  }
  ProbeMorsels(lv.size(), morsel, tp, out, [&](size_t i, const auto& emit) {
    const uint64_t s = static_cast<uint64_t>(lv[i]) - base;
    if (s > span) return;
    for (uint32_t j = t.head[s]; j != kChainEnd; j = t.next[j]) emit(j);
  });
  return true;
}

// The hashed slot function, the same at every size and thread count:
// one table chains all build rows, its slot seeded by bits 32..63 of the
// remixed key hash, at a load factor of at most 1/2; each probe-side
// morsel walks its rows' chains into its own pair chunk.
template <typename Key, typename Hash, typename LKeyFn, typename RKeyFn>
void HashJoinTyped(size_t nl, size_t nr, const LKeyFn& lkey,
                   const RKeyFn& rkey, size_t morsel, ThreadPool* tp,
                   JoinPairChunks* out) {
  Hash hasher;
  auto slot_of = [&](const Key& k) {
    return static_cast<uint32_t>(MixHash(hasher(k)) >> 32);
  };
  ChainTable t;
  size_t cap = 16;
  while (cap < nr * 2) cap <<= 1;
  t.mask = static_cast<uint32_t>(cap - 1);
  t.head.assign(cap, kChainEnd);
  t.next.resize(nr);
  for (size_t j = nr; j-- > 0;) {
    const Key k = rkey(j);
    for (uint32_t s = slot_of(k) & t.mask;; s = (s + 1) & t.mask) {
      const uint32_t h = t.head[s];
      if (h == kChainEnd || rkey(h) == k) {
        t.next[j] = h;
        t.head[s] = static_cast<uint32_t>(j);
        break;
      }
    }
  }
  ProbeMorsels(nl, morsel, tp, out, [&](size_t i, const auto& emit) {
    const Key k = lkey(i);
    for (uint32_t s = slot_of(k) & t.mask;; s = (s + 1) & t.mask) {
      const uint32_t h = t.head[s];
      if (h == kChainEnd) return;
      if (rkey(h) == k) {
        for (uint32_t j = h; j != kChainEnd; j = t.next[j]) emit(j);
        return;
      }
    }
  });
}

// Exclusive prefix offsets of a chunked pair list.
std::vector<size_t> ChunkOffsets(const std::vector<IdxVec>& chunks) {
  std::vector<size_t> offs(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    offs[c + 1] = offs[c] + chunks[c].size();
  }
  return offs;
}

}  // namespace

Status HashJoinPairsChunked(const Column& l, const Column& r,
                            const StringPool& pool, JoinPairChunks* out,
                            ThreadPool* tp, const KernelTuning& kt) {
  if (l.type() != r.type()) {
    return Status::Internal("hash join key type mismatch");
  }
  const KernelTuning ktc = kt.Clamped();
  *out = JoinPairChunks{};
  switch (l.type()) {
    case ColType::kInt: {
      const auto& lv = l.ints();
      const auto& rv = r.ints();
      if (PositionalJoin(lv, rv, ktc.morsel_rows, tp, out)) {
        return Status::OK();
      }
      HashJoinTyped<int64_t, std::hash<int64_t>>(
          lv.size(), rv.size(), [&](size_t i) { return lv[i]; },
          [&](size_t j) { return rv[j]; }, ktc.morsel_rows, tp, out);
      return Status::OK();
    }
    case ColType::kStr: {
      const auto& lv = l.strs();
      const auto& rv = r.strs();
      HashJoinTyped<StrId, std::hash<StrId>>(
          lv.size(), rv.size(), [&](size_t i) { return lv[i]; },
          [&](size_t j) { return rv[j]; }, ktc.morsel_rows, tp, out);
      return Status::OK();
    }
    case ColType::kItem: {
      // Value-join keys are canonicalized so that XQuery general
      // comparison semantics hold across representations: integers
      // compare as doubles, untyped atomics as their typed
      // interpretation (number if parseable, string otherwise).
      const auto& lv = l.items();
      const auto& rv = r.items();
      std::vector<Item> lc(lv.size()), rc(rv.size());
      ParallelFor(tp, lv.size(), ktc.morsel_rows,
                  [&](size_t, size_t lo, size_t hi) {
                    for (size_t i = lo; i < hi; ++i) {
                      lc[i] = CanonicalJoinKey(lv[i], pool);
                    }
                  });
      ParallelFor(tp, rv.size(), ktc.morsel_rows,
                  [&](size_t, size_t lo, size_t hi) {
                    for (size_t j = lo; j < hi; ++j) {
                      rc[j] = CanonicalJoinKey(rv[j], pool);
                    }
                  });
      HashJoinTyped<Item, ItemHash>(
          lc.size(), rc.size(), [&](size_t i) { return lc[i]; },
          [&](size_t j) { return rc[j]; }, ktc.morsel_rows, tp, out);
      return Status::OK();
    }
    default:
      return Status::Internal("hash join key must be int/str/item");
  }
}

Status ThetaJoinPairsChunked(const Column& l, const Column& r, CmpOp op,
                             const StringPool& pool, JoinPairChunks* out,
                             ThreadPool* tp) {
  // Materialize both sides as doubles once, then nested-loop compare.
  // The paper notes (Section 3.4) that theta-join output here is
  // inherently quadratic in the input, so the loop is not the bottleneck
  // — but the pair space splits cleanly into left-row morsels whose
  // chunk order reproduces the serial i-major pair order.
  auto materialize = [&](const Column& c) -> Result<std::vector<double>> {
    std::vector<double> v;
    v.reserve(c.size());
    switch (c.type()) {
      case ColType::kInt:
        for (int64_t x : c.ints()) v.push_back(static_cast<double>(x));
        return v;
      case ColType::kDbl:
        return std::vector<double>(c.dbls());
      case ColType::kItem:
        for (const Item& it : c.items()) {
          PF_ASSIGN_OR_RETURN(double d, ItemToDouble(it, pool));
          v.push_back(d);
        }
        return v;
      default:
        return Status::Internal("theta join key must be numeric");
    }
  };
  *out = JoinPairChunks{};
  auto lm = materialize(l);
  auto rm = materialize(r);
  if (!lm.ok() || !rm.ok()) {
    // Non-numeric keys (e.g. string inequality): fall back to generic
    // value comparison per pair.
    if (l.type() != ColType::kItem || r.type() != ColType::kItem) {
      return !lm.ok() ? lm.status() : rm.status();
    }
    const auto& la = l.items();
    const auto& ra = r.items();
    auto keep_of = [op](int c) {
      switch (op) {
        case CmpOp::kEq:
          return c == 0;
        case CmpOp::kNe:
          return c != 0;
        case CmpOp::kLt:
          return c < 0;
        case CmpOp::kLe:
          return c <= 0;
        case CmpOp::kGt:
          return c > 0;
        case CmpOp::kGe:
          return c >= 0;
      }
      return false;
    };
    // Left-row morsels sized to a fixed pair budget (a function of the
    // input sizes only, never the thread count).
    size_t grain = std::max<size_t>(
        1, kThetaPairsPerMorsel / std::max<size_t>(1, ra.size()));
    size_t chunks = ThreadPool::NumChunks(la.size(), grain);
    out->li.resize(chunks);
    out->ri.resize(chunks);
    PF_RETURN_NOT_OK(ParallelForStatus(
        tp, la.size(), grain,
        [&](size_t c, size_t lo, size_t hi) -> Status {
          for (size_t i = lo; i < hi; ++i) {
            for (size_t j = 0; j < ra.size(); ++j) {
              PF_ASSIGN_OR_RETURN(int cmp,
                                  ItemCompareValue(la[i], ra[j], pool));
              if (keep_of(cmp)) {
                out->li[c].push_back(static_cast<RowIdx>(i));
                out->ri[c].push_back(static_cast<RowIdx>(j));
              }
            }
          }
          return Status::OK();
        }));
    return Status::OK();
  }
  std::vector<double> lv = std::move(lm).value();
  std::vector<double> rv = std::move(rm).value();
  auto test = [op](double a, double b) {
    switch (op) {
      case CmpOp::kEq:
        return a == b;
      case CmpOp::kNe:
        return a != b;
      case CmpOp::kLt:
        return a < b;
      case CmpOp::kLe:
        return a <= b;
      case CmpOp::kGt:
        return a > b;
      case CmpOp::kGe:
        return a >= b;
    }
    return false;
  };
  size_t grain = std::max<size_t>(
      1, kThetaPairsPerMorsel / std::max<size_t>(1, rv.size()));
  size_t chunks = ThreadPool::NumChunks(lv.size(), grain);
  out->li.resize(chunks);
  out->ri.resize(chunks);
  ParallelFor(tp, lv.size(), grain, [&](size_t c, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = 0; j < rv.size(); ++j) {
        if (test(lv[i], rv[j])) {
          out->li[c].push_back(static_cast<RowIdx>(i));
          out->ri[c].push_back(static_cast<RowIdx>(j));
        }
      }
    }
  });
  return Status::OK();
}

Table GatherPairs(const Table& l, const Table& r, const JoinPairChunks& pc,
                  ThreadPool* tp) {
  const std::vector<size_t> offs = ChunkOffsets(pc.li);
  // A side whose concatenated indices are exactly 0..rows-1 (every row
  // matched once, in order: the 1:1 mapping join) keeps its columns:
  // columns are immutable once built, so the joined table shares them.
  auto identity = [&](const Table& t, const std::vector<IdxVec>& idx) {
    if (offs.back() != t.rows()) return false;
    for (size_t k = 0; k < idx.size(); ++k) {
      for (size_t m = 0; m < idx[k].size(); ++m) {
        if (idx[k][m] != offs[k] + m) return false;
      }
    }
    return true;
  };
  // One task per chunk: chunk pair counts vary, so row-range chunking
  // would misalign with `offs`.
  auto gather = [&](const Column& c, const std::vector<IdxVec>& idx) {
    auto out = std::make_shared<Column>(c.type());
    Column::Visit(
        c.type(),
        [&](const auto& src, auto& dst) {
          dst.resize(offs.back());
          ParallelFor(tp, idx.size(), 1, [&](size_t k, size_t, size_t) {
            size_t w = offs[k];
            for (RowIdx row : idx[k]) dst[w++] = src[row];
          });
        },
        c, *out);
    return out;
  };
  Table out;
  auto add_side = [&](const Table& t, const std::vector<IdxVec>& idx) {
    const bool share = identity(t, idx);
    for (size_t i = 0; i < t.num_cols(); ++i) {
      out.AddCol(t.name(i), share ? t.col(i) : gather(*t.col(i), idx));
    }
  };
  add_side(l, pc.li);
  add_side(r, pc.ri);
  return out;
}

Result<IdxVec> SortPerm(const Table& t, const std::vector<ColId>& keys,
                        const StringPool& pool,
                        const std::vector<uint8_t>& desc, ThreadPool* tp,
                        const KernelTuning& kt) {
  PF_ASSIGN_OR_RETURN(std::vector<SortKey> sk, ResolveKeys(t, keys, desc));
  std::vector<uint8_t> flags(t.rows());
  ParallelFor(tp, t.rows(), kt.Clamped().sort_chunk_rows,
              [&](size_t, size_t lo, size_t hi) {
                ClassifyPairs(sk, 0, lo, hi, pool, flags.data(), nullptr);
              });
  return MergeKeyRuns(flags, sk, pool, tp, kt);
}

Result<IdxVec> DistinctIndices(const Table& t,
                               const std::vector<ColId>& keys) {
  PF_ASSIGN_OR_RETURN(std::vector<const Column*> cols, ResolveCols(t, keys));
  const size_t n = t.rows();
  const std::vector<uint64_t> hashes = HashKeys(cols, n);
  RowSet seen(n);
  IdxVec out;
  for (size_t r = 0; r < n; ++r) {
    auto same = [&](RowIdx s) { return SameKey(cols, r, cols, s); };
    if (seen.Insert(static_cast<RowIdx>(r), hashes[r], same)) {
      out.push_back(static_cast<RowIdx>(r));
    }
  }
  return out;
}

Result<ColumnPtr> Mark(const Table& t, const std::vector<ColId>& part,
                       const std::vector<ColId>& order,
                       const StringPool& pool,
                       const std::vector<uint8_t>& order_desc,
                       ThreadPool* tp, const KernelTuning& kt) {
  std::vector<ColId> sort_keys = part;
  sort_keys.insert(sort_keys.end(), order.begin(), order.end());
  std::vector<uint8_t> desc(part.size(), 0);
  desc.insert(desc.end(), order_desc.begin(), order_desc.end());
  PF_ASSIGN_OR_RETURN(std::vector<SortKey> sk,
                      ResolveKeys(t, sort_keys, desc));
  // Empty `part` means one global partition. (ResolveKeys expands an
  // empty key list to all columns — the Distinct convention — so with
  // no keys at all the rows are ordered by every column.)
  const size_t nparts = part.size();
  const size_t n = t.rows();
  const size_t grain = kt.Clamped().sort_chunk_rows;
  const size_t chunks = ThreadPool::NumChunks(n, grain);
  auto out = Column::MakeInt();
  out->ints().resize(n);
  int64_t* num = out->ints().data();
  std::vector<uint8_t> flags(n);
  // Each morsel classifies its pairs and numbers its rows as if they
  // were in order, restarting at its partition boundaries.
  std::vector<size_t> descents(chunks);
  ParallelFor(tp, n, grain, [&](size_t c, size_t lo, size_t hi) {
    descents[c] =
        ClassifyPairs(sk, nparts, lo, hi, pool, flags.data(), num);
    if (nparts == 0) {
      std::iota(num + lo, num + hi, static_cast<int64_t>(lo) + 1);
    }
  });
  if (std::all_of(descents.begin(), descents.end(),
                  [](size_t d) { return d == 0; })) {
    // In order: the rows before a morsel's first boundary continue the
    // count the morsel before it ended with.
    if (nparts > 0) {
      std::vector<int64_t> carry(chunks, 0);
      for (size_t c = 1; c < chunks; ++c) {
        const size_t plo = (c - 1) * grain, lo = c * grain;
        const bool restarted = (flags[plo] & kNewPart) ||
                               num[lo - 1] < static_cast<int64_t>(lo - plo);
        carry[c] = num[lo - 1] + (restarted ? 0 : carry[c - 1]);
      }
      ParallelFor(tp, n, grain, [&](size_t c, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi && !(flags[i] & kNewPart); ++i) {
          num[i] += carry[c];
        }
      });
    }
    return out;
  }
  const IdxVec perm = MergeKeyRuns(flags, sk, pool, tp, kt);
  int64_t count = 0;
  for (size_t k = 0; k < n; ++k) {
    if (k == 0 ||
        CompareKeys(sk, nparts, perm[k - 1], perm[k], pool) != 0) {
      count = 0;
    }
    num[perm[k]] = ++count;
  }
  return out;
}

Result<IdxVec> DifferenceIndices(const Table& a, const Table& b,
                                 const std::vector<ColId>& keys) {
  PF_ASSIGN_OR_RETURN(std::vector<const Column*> acols,
                      ResolveCols(a, keys));
  const size_t na = a.rows();
  const size_t nb = b.rows();
  auto all_of_a = [na] {
    IdxVec out(na);
    for (size_t r = 0; r < na; ++r) out[r] = static_cast<RowIdx>(r);
    return out;
  };
  // Nothing can be subtracted: a \ ∅ = a. Skip hashing entirely and
  // hand back the identity index vector.
  if (nb == 0) return all_of_a();
  PF_ASSIGN_OR_RETURN(std::vector<const Column*> bcols,
                      ResolveCols(b, keys));
  // Key tuples of different widths never match.
  if (bcols.size() != acols.size()) return all_of_a();
  const std::vector<uint64_t> bhashes = HashKeys(bcols, nb);
  RowSet present(nb);
  for (size_t r = 0; r < nb; ++r) {
    auto same = [&](RowIdx s) { return SameKey(bcols, r, bcols, s); };
    present.Insert(static_cast<RowIdx>(r), bhashes[r], same);
  }
  const std::vector<uint64_t> ahashes = HashKeys(acols, na);
  IdxVec out;
  for (size_t r = 0; r < na; ++r) {
    auto same = [&](RowIdx s) { return SameKey(acols, r, bcols, s); };
    if (!present.Contains(ahashes[r], same)) {
      out.push_back(static_cast<RowIdx>(r));
    }
  }
  return out;
}

Result<Table> UnionAll(const Table& a, const Table& b) {
  Table out;
  for (size_t i = 0; i < a.num_cols(); ++i) {
    int bi = b.FindCol(a.name(i));
    if (bi < 0) {
      return Status::Internal("union: right side lacks column '" +
                              std::string(ColName(a.name(i))) + "'");
    }
    const Column& ca = *a.col(i);
    const Column& cb = *b.col(static_cast<size_t>(bi));
    if (ca.type() != cb.type()) {
      return Status::Internal("union: column type mismatch on '" +
                              std::string(ColName(a.name(i))) + "'");
    }
    auto merged = std::make_shared<Column>(ca.type());
    merged->Append(ca);
    merged->Append(cb);
    out.AddCol(a.name(i), std::move(merged));
  }
  return out;
}

Result<Table> GroupAgg(const Table& t, ColId group_col, ColId val_col,
                       AggKind kind, const StringPool& pool, ColId out_group,
                       ColId out_val, ThreadPool* tp) {
  PF_ASSIGN_OR_RETURN(ColumnPtr gcol, t.GetCol(group_col));
  if (gcol->type() != ColType::kInt) {
    return Status::Internal("group column must be int");
  }
  const Column* vcol = nullptr;
  if (kind != AggKind::kCount || val_col != kNoCol) {
    PF_ASSIGN_OR_RETURN(ColumnPtr v, t.GetCol(val_col));
    if (v->type() != ColType::kItem) {
      return Status::Internal("aggregate value column must be item");
    }
    vcol = v.get();
  }

  struct Acc {
    int64_t count = 0;
    double dsum = 0;
    int64_t isum = 0;
    bool all_int = true;
    Item extreme{};
    bool has_extreme = false;
  };

  // Accumulators per group, in first-appearance order.
  struct Groups {
    std::unordered_map<int64_t, uint32_t> index;
    std::vector<int64_t> keys;
    std::vector<Acc> accs;

    // Group g's accumulator, and whether g was new.
    std::pair<Acc*, bool> Find(int64_t g) {
      auto [it, inserted] =
          index.try_emplace(g, static_cast<uint32_t>(keys.size()));
      if (inserted) {
        keys.push_back(g);
        accs.emplace_back();
      }
      return {&accs[it->second], inserted};
    }
  };

  const auto& groups = gcol->ints();
  const size_t n = t.rows();

  // Folds v into a's extreme. The comparison is strict, so on ties the
  // item seen first stays: in row order within a morsel, and in chunk
  // order when the partials are combined.
  auto fold_extreme = [&](Acc* a, const Item& v) -> Status {
    if (!a->has_extreme) {
      a->extreme = v;
      a->has_extreme = true;
      return Status::OK();
    }
    PF_ASSIGN_OR_RETURN(int cmp, ItemCompareValue(v, a->extreme, pool));
    if ((kind == AggKind::kMax && cmp > 0) ||
        (kind == AggKind::kMin && cmp < 0)) {
      a->extreme = v;
    }
    return Status::OK();
  };

  auto accumulate = [&](Acc* a, size_t r) -> Status {
    a->count++;
    if (vcol == nullptr) return Status::OK();
    const Item& v = vcol->items()[r];
    switch (kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg: {
        PF_ASSIGN_OR_RETURN(double d, ItemToDouble(v, pool));
        a->dsum += d;
        if (v.kind == ItemKind::kInt) {
          a->isum += v.AsInt();
        } else {
          a->all_int = false;
        }
        break;
      }
      case AggKind::kMax:
      case AggKind::kMin:
        return fold_extreme(a, v);
    }
    return Status::OK();
  };

  // One fold below kGroupAggParRows rows. Above it, one partial per
  // morsel of the FIXED kMorselRows grain, never the tuning. Both the
  // switch and the split depend on the row count ONLY, so the FP sum
  // association, and therefore the result bytes, are the same at every
  // thread count (tp == nullptr runs the same morsels inline).
  const size_t grain = n < kGroupAggParRows ? n : kMorselRows;
  std::vector<Groups> parts(ThreadPool::NumChunks(n, grain));
  if (parts.size() == 1) parts[0].index.reserve(n * 2);
  PF_RETURN_NOT_OK(ParallelForStatus(
      tp, n, grain, [&](size_t c, size_t lo, size_t hi) -> Status {
        Groups& p = parts[c];
        for (size_t r = lo; r < hi; ++r) {
          PF_RETURN_NOT_OK(accumulate(p.Find(groups[r]).first, r));
        }
        return Status::OK();
      }));
  // Combine the partials in chunk order: each group enters at its first
  // sighting, so the group order is first appearance over the rows, and
  // each group folds its partials in chunk order.
  Groups all;
  if (!parts.empty()) all = std::move(parts[0]);
  for (size_t c = 1; c < parts.size(); ++c) {
    const Groups& p = parts[c];
    for (size_t k = 0; k < p.keys.size(); ++k) {
      const Acc& src = p.accs[k];
      auto [dst, inserted] = all.Find(p.keys[k]);
      if (inserted) {
        *dst = src;
        continue;
      }
      dst->count += src.count;
      dst->dsum += src.dsum;
      dst->isum += src.isum;
      dst->all_int = dst->all_int && src.all_int;
      if (src.has_extreme) PF_RETURN_NOT_OK(fold_extreme(dst, src.extreme));
    }
  }

  auto out_v = Column::MakeItem(all.keys.size());
  auto out_g = Column::MakeInt();
  out_g->ints() = std::move(all.keys);
  for (const Acc& a : all.accs) {
    switch (kind) {
      case AggKind::kCount:
        out_v->items().push_back(Item::Int(a.count));
        break;
      case AggKind::kSum:
        out_v->items().push_back(a.all_int ? Item::Int(a.isum)
                                           : Item::Dbl(a.dsum));
        break;
      case AggKind::kAvg:
        out_v->items().push_back(
            Item::Dbl(a.dsum / static_cast<double>(a.count)));
        break;
      case AggKind::kMax:
      case AggKind::kMin:
        out_v->items().push_back(a.extreme);
        break;
    }
  }
  Table out;
  out.AddCol(out_group, std::move(out_g));
  out.AddCol(out_val, std::move(out_v));
  return out;
}

}  // namespace pathfinder::bat
