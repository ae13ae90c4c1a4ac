#include "bat/kernel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

#include "bat/item_ops.h"

namespace pathfinder::bat {

namespace {

// Morsel sizing for the operators that are NOT tuning-aware (gather,
// theta join, distinct/difference). Fixed constants — NEVER derived
// from the thread count — so chunk boundaries, and with them every
// chunk-indexed merge, are identical at every pool size (see
// ThreadPool's determinism contract). The tuning-aware kernels obey
// the same contract with KernelTuning values in place of constants:
// chunk boundaries depend on (n, grain) only.
constexpr size_t kMorselRows = 4096;
constexpr size_t kThetaPairsPerMorsel = size_t{1} << 16;
constexpr size_t kGroupAggParRows = 8192;

// Distinct/difference hash partitions (power of two), chosen by the
// top bits of a row's key hash (see HashKeys).
constexpr size_t kJoinPartitions = 32;

// Fibonacci remix: one multiply spreads entropy into the top bits,
// which the radix partitioning reads.
inline uint64_t MixHash(size_t h) {
  return static_cast<uint64_t>(h) * 0x9E3779B97F4A7C15ull;
}

inline size_t PartitionOf(uint64_t key_hash) {
  return static_cast<size_t>(key_hash >> 59);  // top log2(32) bits
}

}  // namespace

KernelTuning KernelTuning::Clamped() const {
  KernelTuning kt = *this;
  kt.radix_bits = std::clamp(kt.radix_bits, 1, 12);
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

// Key hashes of rows [lo, hi) into h[lo, hi), one column at a time; each
// cell image is folded in through the splitmix64 finalizer, so the low
// bits (RowSet slots) and the top bits (PartitionOf) are both mixed.
void HashKeys(const std::vector<const Column*>& cols, size_t lo, size_t hi,
              uint64_t* h) {
  std::fill(h + lo, h + hi, uint64_t{0});
  for (const Column* c : cols) {
    for (size_t r = lo; r < hi; ++r) {
      CellImage img = ImageOf(*c, r);
      uint64_t x = (h[r] + img.tag * 0x9E3779B97F4A7C15ull) ^ img.bits;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      h[r] = x ^ (x >> 31);
    }
  }
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

// Three-way comparison of two rows under the given key columns; ties at
// all keys return 0 (stable sort then preserves input order). `desc`
// (parallel to cols, optional) flips individual keys.
int CompareRows(const std::vector<const Column*>& cols, size_t ra, size_t rb,
                const StringPool& pool, const std::vector<uint8_t>& desc = {}) {
  size_t ki = 0;
  for (const Column* c : cols) {
    int flip = (ki < desc.size() && desc[ki]) ? -1 : 1;
    ++ki;
    switch (c->type()) {
      case ColType::kInt: {
        int64_t a = c->ints()[ra], b = c->ints()[rb];
        if (a != b) return (a < b ? -1 : 1) * flip;
        break;
      }
      case ColType::kDbl: {
        double a = c->dbls()[ra], b = c->dbls()[rb];
        if (a != b) return (a < b ? -1 : 1) * flip;
        break;
      }
      case ColType::kStr: {
        StrId a = c->strs()[ra], b = c->strs()[rb];
        if (a != b) {
          int cmp = pool.Get(a).compare(pool.Get(b));
          if (cmp != 0) return (cmp < 0 ? -1 : 1) * flip;
        }
        break;
      }
      case ColType::kBool: {
        int a = c->bools()[ra], b = c->bools()[rb];
        if (a != b) return (a < b ? -1 : 1) * flip;
        break;
      }
      case ColType::kItem: {
        int cmp = ItemOrder(c->items()[ra], c->items()[rb], pool);
        if (cmp != 0) return cmp * flip;
        break;
      }
    }
  }
  return 0;
}

// Row-order compaction by a 0/1 mark per row — the one filter loop
// behind σ, distinct and difference. MarkOffsets counts each morsel's
// marks and turns the counts into exclusive output offsets;
// ScatterMarked then lets every morsel write its marked rows into its
// own output slice: row order preserved, no inter-chunk contention.
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

// Indices of the marked rows, in row order.
IdxVec MarkedRows(const std::vector<uint8_t>& marks, size_t morsel,
                  ThreadPool* tp) {
  IdxVec out;
  ScatterMarked(marks, MarkOffsets(marks, morsel, tp), morsel, tp, &out,
                [](size_t i) { return static_cast<RowIdx>(i); });
  return out;
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
  Table out;
  for (size_t i = 0; i < t.num_cols(); ++i) {
    out.AddCol(t.name(i), Gather(*t.col(i), idx, tp));
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
// first local row of slot s's key, next[u] the local row after u with
// the same key; local row u stands for build row row(u). Rows are
// inserted in descending order and each is prepended, so every chain
// lists its key's rows ascending (the serial insertion order) without
// a tail array. Three slot functions fill it, chosen by the input
// alone: key - min (PositionalJoin: one key per slot, so no hash and no
// probing), and the mixed key hash with linear probing, over one table
// below the morsel threshold or one table per radix partition above it
// (HashJoinTyped).
struct ChainTable {
  std::vector<uint32_t> head;
  std::vector<uint32_t> next;
  uint32_t mask = 0;  // hashed slots: head.size() - 1
};

// Chains the `cnt` local rows of a hashed table; slot(u) is the hash
// bits that seed local row u's slot.
template <typename RowFn, typename SlotFn, typename RKeyFn>
void BuildHashed(size_t cnt, const RowFn& row, const SlotFn& slot,
                 const RKeyFn& rkey, ChainTable* t) {
  if (cnt == 0) return;  // head stays empty: every probe misses
  size_t cap = 16;
  while (cap < cnt * 2) cap <<= 1;
  t->mask = static_cast<uint32_t>(cap - 1);
  t->head.assign(cap, kChainEnd);
  t->next.resize(cnt);
  for (size_t u = cnt; u-- > 0;) {
    const auto k = rkey(row(u));
    for (uint32_t s = slot(u) & t->mask;; s = (s + 1) & t->mask) {
      const uint32_t h = t->head[s];
      if (h == kChainEnd || rkey(row(h)) == k) {
        t->next[u] = h;
        t->head[s] = static_cast<uint32_t>(u);
        break;
      }
    }
  }
}

// Calls emit(j) for every build row j of a hashed table whose key
// equals k, ascending; `slot` seeds the probe as in BuildHashed.
template <typename Key, typename RowFn, typename RKeyFn, typename Emit>
void ProbeHashed(const ChainTable& t, uint32_t slot, const Key& k,
                 const RowFn& row, const RKeyFn& rkey, const Emit& emit) {
  if (t.head.empty()) return;
  for (uint32_t s = slot & t.mask;; s = (s + 1) & t.mask) {
    const uint32_t h = t.head[s];
    if (h == kChainEnd) return;
    if (rkey(row(h)) == k) {
      for (uint32_t u = h; u != kChainEnd; u = t.next[u]) emit(row(u));
      return;
    }
  }
}

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

// The hashed slot functions. Below the morsel threshold one table is
// chained over all build rows. Above it the radix-partitioned join runs
// at EVERY thread count (tp == nullptr executes the same morsels
// inline), so the path choice, like the chunk boundaries, is a function
// of the input sizes only. Three phases, none sharing a mutable
// structure:
//   partition: each build-side morsel histograms rows by the top
//              radix_bits of the remixed key hash; a partition-major
//              exclusive prefix (chunk order within each partition)
//              turns the counts into disjoint scatter cursors, so each
//              partition's row list comes out contiguous and in
//              ascending global row order;
//   build:     one task per partition chains its rows into a private
//              table; the slot index comes from hash bits disjoint from
//              the partition bits;
//   probe:     each probe-side morsel walks its rows' chains and emits
//              pairs into its own chunk.
template <typename Key, typename Hash, typename LKeyFn, typename RKeyFn>
void HashJoinTyped(size_t nl, size_t nr, const LKeyFn& lkey,
                   const RKeyFn& rkey, JoinPairChunks* out, ThreadPool* tp,
                   const KernelTuning& kt) {
  Hash hasher;
  const size_t morsel = kt.morsel_rows;
  // Bits 32..63 of the remixed hash seed the slot index.
  auto slot_of = [&](const Key& k) {
    return static_cast<uint32_t>(MixHash(hasher(k)) >> 32);
  };
  if (nl < morsel && nr < morsel) {
    auto row = [](size_t u) { return static_cast<RowIdx>(u); };
    ChainTable t;
    BuildHashed(
        nr, row, [&](size_t u) { return slot_of(rkey(u)); }, rkey, &t);
    ProbeMorsels(nl, morsel, tp, out, [&](size_t i, const auto& emit) {
      const Key k = lkey(i);
      ProbeHashed(t, slot_of(k), k, row, rkey, emit);
    });
    return;
  }
  const int bits = kt.radix_bits;
  const size_t nparts = size_t{1} << bits;

  // Partition phase. The remixed hash is computed once per build row:
  // the top `bits` select the partition, bits 32..63 (disjoint from
  // the partition bits for any realistic per-partition capacity) seed
  // the slot index later.
  size_t bchunks = ThreadPool::NumChunks(nr, morsel);
  std::vector<uint16_t> pid(nr);
  std::vector<uint32_t> slot_hash(nr);
  std::vector<size_t> hist(bchunks * nparts, 0);
  ParallelFor(tp, nr, morsel, [&](size_t c, size_t lo, size_t hi) {
    size_t* h = &hist[c * nparts];
    for (size_t j = lo; j < hi; ++j) {
      uint64_t x = MixHash(hasher(rkey(j)));
      uint16_t p = static_cast<uint16_t>(x >> (64 - bits));
      pid[j] = p;
      slot_hash[j] = static_cast<uint32_t>(x >> 32);
      ++h[p];
    }
  });
  std::vector<size_t> pstart(nparts + 1, 0);
  {
    size_t run = 0;
    for (size_t p = 0; p < nparts; ++p) {
      pstart[p] = run;
      for (size_t c = 0; c < bchunks; ++c) {
        size_t cnt = hist[c * nparts + p];
        hist[c * nparts + p] = run;  // becomes the (c, p) scatter cursor
        run += cnt;
      }
    }
    pstart[nparts] = run;
  }
  std::vector<RowIdx> part_rows(nr);
  ParallelFor(tp, nr, morsel, [&](size_t c, size_t lo, size_t hi) {
    size_t* cur = &hist[c * nparts];
    for (size_t j = lo; j < hi; ++j) {
      part_rows[cur[pid[j]]++] = static_cast<RowIdx>(j);
    }
  });

  // Build phase: per-partition private tables, flat arrays only.
  std::vector<ChainTable> tables(nparts);
  ParallelFor(tp, nparts, 1, [&](size_t p, size_t, size_t) {
    const RowIdx* rows = part_rows.data() + pstart[p];
    BuildHashed(
        pstart[p + 1] - pstart[p], [rows](size_t u) { return rows[u]; },
        [&](size_t u) { return slot_hash[rows[u]]; }, rkey, &tables[p]);
  });

  // Probe phase.
  ProbeMorsels(nl, morsel, tp, out, [&](size_t i, const auto& emit) {
    const Key k = lkey(i);
    const uint64_t x = MixHash(hasher(k));
    const size_t p = static_cast<size_t>(x >> (64 - bits));
    const RowIdx* rows = part_rows.data() + pstart[p];
    ProbeHashed(
        tables[p], static_cast<uint32_t>(x >> 32), k,
        [rows](uint32_t u) { return rows[u]; }, rkey, emit);
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
          [&](size_t j) { return rv[j]; }, out, tp, ktc);
      return Status::OK();
    }
    case ColType::kStr: {
      const auto& lv = l.strs();
      const auto& rv = r.strs();
      HashJoinTyped<StrId, std::hash<StrId>>(
          lv.size(), rv.size(), [&](size_t i) { return lv[i]; },
          [&](size_t j) { return rv[j]; }, out, tp, ktc);
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
          [&](size_t j) { return rc[j]; }, out, tp, ktc);
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
  PF_ASSIGN_OR_RETURN(std::vector<const Column*> cols, ResolveCols(t, keys));
  return StableSortRows(
      t.rows(),
      [&](RowIdx a, RowIdx b) -> Result<int> {
        return CompareRows(cols, a, b, pool, desc);
      },
      tp, kt);
}

Result<IdxVec> DistinctIndices(const Table& t, const std::vector<ColId>& keys,
                               ThreadPool* tp) {
  PF_ASSIGN_OR_RETURN(std::vector<const Column*> cols, ResolveCols(t, keys));
  size_t n = t.rows();
  std::vector<uint64_t> hashes(n);
  if (tp == nullptr || n < 2 * kMorselRows) {
    HashKeys(cols, 0, n, hashes.data());
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
  // Parallel first-occurrence marking. Rows are hash-partitioned per
  // morsel; each partition then scans its rows visiting morsels in
  // chunk order — within a partition rows therefore arrive in ascending
  // global row order, so the per-partition set marks exactly the rows
  // the serial scan would keep. Distinct partitions never share a row,
  // so the byte-per-row marks vector is written race-free.
  size_t chunks = ThreadPool::NumChunks(n, kMorselRows);
  std::vector<std::vector<IdxVec>> buckets(
      chunks, std::vector<IdxVec>(kJoinPartitions));
  ParallelFor(tp, n, kMorselRows, [&](size_t c, size_t lo, size_t hi) {
    HashKeys(cols, lo, hi, hashes.data());
    auto& bk = buckets[c];
    for (size_t r = lo; r < hi; ++r) {
      bk[PartitionOf(hashes[r])].push_back(static_cast<RowIdx>(r));
    }
  });
  std::vector<uint8_t> first(n, 0);
  ParallelFor(tp, kJoinPartitions, 1, [&](size_t p, size_t, size_t) {
    size_t rows = 0;
    for (size_t c = 0; c < chunks; ++c) rows += buckets[c][p].size();
    RowSet seen(rows);
    for (size_t c = 0; c < chunks; ++c) {
      for (RowIdx r : buckets[c][p]) {
        auto same = [&](RowIdx s) { return SameKey(cols, r, cols, s); };
        if (seen.Insert(r, hashes[r], same)) first[r] = 1;
      }
    }
  });
  return MarkedRows(first, kMorselRows, tp);
}

Result<ColumnPtr> Mark(const Table& t, const std::vector<ColId>& part,
                       const std::vector<ColId>& order,
                       const StringPool& pool,
                       const std::vector<uint8_t>& order_desc,
                       ThreadPool* tp, const KernelTuning& kt) {
  std::vector<ColId> sort_keys = part;
  sort_keys.insert(sort_keys.end(), order.begin(), order.end());
  std::vector<uint8_t> desc(part.size(), 0);
  if (!order_desc.empty()) {
    desc.insert(desc.end(), order_desc.begin(), order_desc.end());
  } else {
    desc.insert(desc.end(), order.size(), 0);
  }
  PF_ASSIGN_OR_RETURN(IdxVec perm,
                      SortPerm(t, sort_keys, pool, desc, tp, kt));
  // Empty `part` means one global partition. (ResolveCols expands an
  // empty list to all columns — the Distinct convention, not ours.)
  std::vector<const Column*> pcols;
  if (!part.empty()) {
    PF_ASSIGN_OR_RETURN(pcols, ResolveCols(t, part));
  }
  auto out = Column::MakeInt(t.rows());
  out->ints().assign(t.rows(), 0);
  int64_t counter = 0;
  for (size_t k = 0; k < perm.size(); ++k) {
    bool new_part = k == 0 || (!pcols.empty() &&
                               CompareRows(pcols, perm[k - 1], perm[k],
                                           pool) != 0);
    if (new_part) counter = 0;
    out->ints()[perm[k]] = ++counter;
  }
  return out;
}

Result<IdxVec> DifferenceIndices(const Table& a, const Table& b,
                                 const std::vector<ColId>& keys,
                                 ThreadPool* tp) {
  PF_ASSIGN_OR_RETURN(std::vector<const Column*> acols,
                      ResolveCols(a, keys));
  size_t na = a.rows();
  size_t nb = b.rows();
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
  std::vector<uint64_t> ahashes(na);
  std::vector<uint64_t> bhashes(nb);
  auto in_b = [&](size_t r, const RowSet& set) {
    auto same = [&](RowIdx s) { return SameKey(acols, r, bcols, s); };
    return set.Contains(ahashes[r], same);
  };
  if (tp == nullptr || (na < 2 * kMorselRows && nb < 2 * kMorselRows)) {
    HashKeys(bcols, 0, nb, bhashes.data());
    RowSet present(nb);
    for (size_t r = 0; r < nb; ++r) {
      auto same = [&](RowIdx s) { return SameKey(bcols, r, bcols, s); };
      present.Insert(static_cast<RowIdx>(r), bhashes[r], same);
    }
    HashKeys(acols, 0, na, ahashes.data());
    IdxVec out;
    for (size_t r = 0; r < na; ++r) {
      if (!in_b(r, present)) out.push_back(static_cast<RowIdx>(r));
    }
    return out;
  }
  // Parallel anti-semijoin: build hash-partitioned key sets from b
  // (set membership is order-free, so partition builds need no chunk
  // discipline), then probe a's morsels independently and collect the
  // kept rows with the two-pass prefix pattern — output order is a's
  // row order, identical to the serial scan.
  size_t bchunks = ThreadPool::NumChunks(nb, kMorselRows);
  std::vector<std::vector<IdxVec>> buckets(
      bchunks, std::vector<IdxVec>(kJoinPartitions));
  ParallelFor(tp, nb, kMorselRows, [&](size_t c, size_t lo, size_t hi) {
    HashKeys(bcols, lo, hi, bhashes.data());
    auto& bk = buckets[c];
    for (size_t r = lo; r < hi; ++r) {
      bk[PartitionOf(bhashes[r])].push_back(static_cast<RowIdx>(r));
    }
  });
  std::vector<RowSet> parts(kJoinPartitions, RowSet(0));
  ParallelFor(tp, kJoinPartitions, 1, [&](size_t p, size_t, size_t) {
    size_t rows = 0;
    for (size_t c = 0; c < bchunks; ++c) rows += buckets[c][p].size();
    parts[p] = RowSet(rows);
    for (size_t c = 0; c < bchunks; ++c) {
      for (RowIdx r : buckets[c][p]) {
        auto same = [&](RowIdx s) { return SameKey(bcols, r, bcols, s); };
        parts[p].Insert(r, bhashes[r], same);
      }
    }
  });
  std::vector<uint8_t> keep(na, 0);
  ParallelFor(tp, na, kMorselRows, [&](size_t, size_t lo, size_t hi) {
    HashKeys(acols, lo, hi, ahashes.data());
    for (size_t r = lo; r < hi; ++r) {
      keep[r] = in_b(r, parts[PartitionOf(ahashes[r])]) ? 0 : 1;
    }
  });
  return MarkedRows(keep, kMorselRows, tp);
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
                       ColId out_val, ThreadPool* tp,
                       const KernelTuning& kt) {
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

  const auto& groups = gcol->ints();
  size_t n = t.rows();

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
      case AggKind::kMin: {
        if (!a->has_extreme) {
          a->extreme = v;
          a->has_extreme = true;
        } else {
          PF_ASSIGN_OR_RETURN(int cmp,
                              ItemCompareValue(v, a->extreme, pool));
          if ((kind == AggKind::kMax && cmp > 0) ||
              (kind == AggKind::kMin && cmp < 0)) {
            a->extreme = v;
          }
        }
        break;
      }
    }
    return Status::OK();
  };

  std::vector<int64_t> group_order;
  std::unordered_map<int64_t, Acc> accs;

  if (n < kGroupAggParRows) {
    accs.reserve(n * 2);
    for (size_t r = 0; r < n; ++r) {
      auto [it, inserted] = accs.try_emplace(groups[r]);
      if (inserted) group_order.push_back(groups[r]);
      PF_RETURN_NOT_OK(accumulate(&it->second, r));
    }
  } else {
    // Morsel-wise partial aggregation. The algorithm switch above and
    // the morsel split both depend on the row count ONLY — the grain is
    // deliberately the FIXED kMorselRows, never the tuning — so the FP
    // sum association, and therefore the result bytes, are the same at
    // every thread count AND every tuning (tp == nullptr runs the same
    // morsels inline).
    struct Partial {
      std::vector<int64_t> order;
      std::unordered_map<int64_t, Acc> accs;
    };
    size_t chunks = ThreadPool::NumChunks(n, kMorselRows);
    std::vector<Partial> parts(chunks);
    PF_RETURN_NOT_OK(ParallelForStatus(
        tp, n, kMorselRows, [&](size_t c, size_t lo, size_t hi) -> Status {
          Partial& p = parts[c];
          for (size_t r = lo; r < hi; ++r) {
            auto [it, inserted] = p.accs.try_emplace(groups[r]);
            if (inserted) p.order.push_back(groups[r]);
            PF_RETURN_NOT_OK(accumulate(&it->second, r));
          }
          return Status::OK();
        }));
    // Partitioned combine: groups are radix-partitioned across
    // 2^radix_bits private merge maps, so no shared map is built.
    // Each chunk's group list is bucketed by partition first (storing
    // positions, so per-partition scans still see ascending chunk
    // positions); each partition then folds its groups' partials
    // visiting chunks in ascending order — per group that is exactly
    // the chunk-order fold the serial merge performed, so the FP
    // association is unchanged. The first (chunk, pos) sighting of
    // each group is recorded, and sorting those keys rebuilds the
    // global first-appearance group order: every group's first
    // sighting is unique, and (chunk, pos) ascending is precisely
    // "first appearance over the concatenated morsels".
    const int bits = kt.Clamped().radix_bits;
    const size_t nparts = size_t{1} << bits;
    std::vector<std::vector<uint32_t>> pbuckets(chunks * nparts);
    ParallelFor(tp, chunks, 1, [&](size_t c, size_t, size_t) {
      const auto& order = parts[c].order;
      for (size_t pos = 0; pos < order.size(); ++pos) {
        size_t p = static_cast<size_t>(
            MixHash(static_cast<size_t>(order[pos])) >> (64 - bits));
        pbuckets[c * nparts + p].push_back(static_cast<uint32_t>(pos));
      }
    });
    struct First {
      uint32_t chunk;
      uint32_t pos;
      int64_t g;
    };
    std::vector<std::unordered_map<int64_t, Acc>> pmerged(nparts);
    std::vector<std::vector<First>> pfirsts(nparts);
    PF_RETURN_NOT_OK(ParallelForStatus(
        tp, nparts, 1, [&](size_t p, size_t, size_t) -> Status {
          auto& merged = pmerged[p];
          auto& firsts = pfirsts[p];
          for (size_t c = 0; c < chunks; ++c) {
            for (uint32_t pos : pbuckets[c * nparts + p]) {
              int64_t g = parts[c].order[pos];
              const Acc& src = parts[c].accs.at(g);
              auto [it, inserted] = merged.try_emplace(g);
              Acc& dst = it->second;
              if (inserted) {
                dst = src;
                firsts.push_back({static_cast<uint32_t>(c), pos, g});
                continue;
              }
              dst.count += src.count;
              dst.dsum += src.dsum;
              dst.isum += src.isum;
              dst.all_int = dst.all_int && src.all_int;
              if (src.has_extreme) {
                if (!dst.has_extreme) {
                  dst.extreme = src.extreme;
                  dst.has_extreme = true;
                } else {
                  PF_ASSIGN_OR_RETURN(
                      int cmp,
                      ItemCompareValue(src.extreme, dst.extreme, pool));
                  // Strict comparison: on ties the earlier morsel's
                  // item stays, matching the serial first-wins rule.
                  if ((kind == AggKind::kMax && cmp > 0) ||
                      (kind == AggKind::kMin && cmp < 0)) {
                    dst.extreme = src.extreme;
                  }
                }
              }
            }
          }
          return Status::OK();
        }));
    size_t ngroups = 0;
    for (const auto& f : pfirsts) ngroups += f.size();
    std::vector<First> firsts;
    firsts.reserve(ngroups);
    for (auto& f : pfirsts) {
      firsts.insert(firsts.end(), f.begin(), f.end());
    }
    std::sort(firsts.begin(), firsts.end(),
              [](const First& a, const First& b) {
                return a.chunk != b.chunk ? a.chunk < b.chunk
                                          : a.pos < b.pos;
              });
    group_order.reserve(ngroups);
    for (const First& f : firsts) group_order.push_back(f.g);
    // The partition maps are disjoint, so moving their nodes into the
    // output map never collides.
    accs.reserve(ngroups * 2);
    for (auto& m : pmerged) accs.merge(m);
  }

  auto out_g = Column::MakeInt(group_order.size());
  auto out_v = Column::MakeItem(group_order.size());
  for (int64_t g : group_order) {
    const Acc& a = accs[g];
    out_g->ints().push_back(g);
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
