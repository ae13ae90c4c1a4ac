#include "engine/cache.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "algebra/hash.h"

namespace pathfinder::engine {

namespace alg = pathfinder::algebra;

namespace {

/// Does the sorted dependency list intersect the changed-name set?
bool DepsHit(const std::vector<std::string>& deps, bool unknown,
             const std::unordered_set<std::string>& changed) {
  if (unknown) return true;
  for (const auto& d : deps) {
    if (changed.count(d)) return true;
  }
  return false;
}

/// Lower cost density: does `a` buy less evaluation time per resident
/// byte than `b`? Cross-multiplied in 128 bits so densities compare
/// exactly (no float ties).
bool LowerDensity(int64_t a_cost, size_t a_bytes, int64_t b_cost,
                  size_t b_bytes) {
  return static_cast<unsigned __int128>(a_cost) * b_bytes <
         static_cast<unsigned __int128>(b_cost) * a_bytes;
}

/// Re-point every cached node item whose fragment id appears in `remap`
/// at the corresponding updated snapshot. Columns reachable from a
/// Table are immutable by convention (in-flight queries and other
/// cached tables may share them), so a touched column is replaced by a
/// fresh one; untouched columns stay shared.
void RemapTableFrags(bat::Table* t,
                     const std::unordered_map<uint32_t, uint32_t>& remap) {
  for (size_t i = 0; i < t->num_cols(); ++i) {
    const bat::ColumnPtr& c = t->col(i);
    if (c == nullptr || c->type() != bat::ColType::kItem) continue;
    const std::vector<Item>& in = c->items();
    bool touched = false;
    for (const Item& item : in) {
      if (item.IsNode() && remap.count(item.NodeFrag())) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    auto fresh = bat::Column::MakeItem(in.size());
    std::vector<Item>& out = fresh->items();
    for (const Item& item : in) {
      if (item.IsNode()) {
        auto rit = remap.find(item.NodeFrag());
        if (rit != remap.end()) {
          // Content-only updates keep pre ranks bit-identical, so only
          // the frag half of the payload moves; the item kind (element
          // vs attribute reference) is preserved.
          out.push_back(item.kind == ItemKind::kAttr
                            ? Item::Attr(rit->second, item.NodePre())
                            : Item::Node(rit->second, item.NodePre()));
          continue;
        }
      }
      out.push_back(item);
    }
    t->SetCol(i, std::move(fresh));
  }
}

}  // namespace

// --- QueryCache -----------------------------------------------------------

QueryCache::QueryCache(size_t budget_bytes)
    : budget_(budget_bytes), min_cost_ns_(CacheDefaultMinCostUs() * 1000) {}

void QueryCache::BeginQuery(
    uint64_t db_generation,
    const std::vector<xml::Database::DocVersion>& doc_versions, bool repair) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation_seen_ && generation_ != db_generation) {
    stats_.invalidations++;
    InvalidateDocsLocked(doc_versions, repair);
  }
  if (!generation_seen_ || generation_ != db_generation) {
    doc_versions_.clear();
    for (const auto& d : doc_versions) {
      doc_versions_[d.name] = DocSync{d.structure, d.content, d.frag};
    }
  }
  generation_ = db_generation;
  generation_seen_ = true;
}

void QueryCache::InvalidateDocsLocked(
    const std::vector<xml::Database::DocVersion>& doc_versions, bool repair) {
  // structural = names whose pre numbering may have moved: new names,
  // structure-version moves, names that disappeared since the last
  // sync — plus every content move when repair is off. content = names
  // that took only a content move (leaf replace-value; pre ranks
  // bit-identical); their old frag -> new frag pairs form the node-item
  // repair map.
  std::unordered_set<std::string> structural;
  std::unordered_set<std::string> content;
  std::unordered_map<uint32_t, uint32_t> frag_remap;
  std::unordered_set<std::string_view> present;
  for (const auto& d : doc_versions) {
    present.insert(d.name);
    auto it = doc_versions_.find(d.name);
    if (it == doc_versions_.end() || it->second.structure != d.structure) {
      structural.insert(d.name);
    } else if (it->second.content != d.content) {
      if (repair) {
        content.insert(d.name);
        frag_remap[it->second.frag] = d.frag;
      } else {
        structural.insert(d.name);
      }
    }
  }
  for (const auto& [name, sync] : doc_versions_) {
    if (!present.count(name)) structural.insert(name);
  }
  if (structural.empty() && content.empty()) return;
  // Plan entries reference documents by *name*, never by fragment id,
  // and no plan decision reads a document's values — so they survive a
  // pure content move (even unknown-dependency ones) and drop only on
  // structural change.
  if (!structural.empty()) {
    for (auto it = plan_lru_.begin(); it != plan_lru_.end();) {
      const PlanCacheEntry& e = **it;
      if (!DepsHit(e.doc_deps, e.doc_deps_unknown, structural)) {
        ++it;
        continue;
      }
      for (const auto& k : e.keys) plan_map_.erase(k);
      stats_.plan.bytes -= static_cast<int64_t>(e.bytes);
      stats_.plan.entries--;
      stats_.per_doc_invalidations++;
      it = plan_lru_.erase(it);
    }
  }
  for (auto it = sub_lru_.begin(); it != sub_lru_.end();) {
    bool drop = DepsHit(it->docs, it->docs_unknown, structural);
    bool content_hit = !drop && DepsHit(it->docs, it->docs_unknown, content);
    if (content_hit && it->value_free && !it->docs_unknown) {
      // Structure-only result over a content-moved document: repair in
      // place. The resident entry's items reference the frag recorded
      // at the last sync (the InsertSubplan generation guard refuses
      // anything staler), so the remap is exact. `bytes` stays as
      // charged — the fresh columns replace same-sized ones.
      RemapTableFrags(&it->table, frag_remap);
      stats_.subplan_repairs++;
      ++it;
      continue;
    }
    if (!drop && !content_hit) {
      ++it;
      continue;
    }
    auto next = std::next(it);
    EraseSubLocked(it);
    stats_.per_doc_invalidations++;
    it = next;
  }
}

PlanEntryPtr QueryCache::LookupPlan(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plan_map_.find(key);
  if (it == plan_map_.end()) {
    stats_.plan.misses++;
    return nullptr;
  }
  stats_.plan.hits++;
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
  return *it->second;
}

void QueryCache::AliasPlan(const std::string& key, const PlanEntryPtr& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_map_.count(key)) return;
  // Locate the resident list node via one of the entry's known keys; if
  // the entry was evicted between lookup and alias, do nothing.
  for (const auto& k : entry->keys) {
    auto it = plan_map_.find(k);
    if (it == plan_map_.end() || *it->second != entry) continue;
    plan_map_.emplace(key, it->second);
    // The alias key is part of the entry's footprint: recorded on the
    // entry too, so eviction releases exactly what residency charged.
    auto* e = const_cast<PlanCacheEntry*>(entry.get());
    e->keys.push_back(key);
    e->bytes += key.size();
    stats_.plan.bytes += static_cast<int64_t>(key.size());
    return;
  }
}

PlanEntryPtr QueryCache::InsertPlan(const std::string& raw_key,
                                    const std::string& core_key,
                                    PlanCacheEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // Insert-if-absent: a concurrent query may have published the same
  // plan first; the resident entry wins (all executors then share one
  // annotated DAG).
  if (auto it = plan_map_.find(raw_key); it != plan_map_.end()) {
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
    return *it->second;
  }
  if (auto it = plan_map_.find(core_key); it != plan_map_.end()) {
    PlanEntryPtr resident = *it->second;
    plan_map_.emplace(raw_key, it->second);
    auto* e = const_cast<PlanCacheEntry*>(resident.get());
    e->keys.push_back(raw_key);
    e->bytes += raw_key.size();
    stats_.plan.bytes += static_cast<int64_t>(raw_key.size());
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
    return resident;
  }
  entry.keys = {raw_key};
  if (core_key != raw_key) entry.keys.push_back(core_key);
  entry.bytes += raw_key.size() + core_key.size();
  auto shared = std::make_shared<const PlanCacheEntry>(std::move(entry));
  if (shared->bytes > PlanBudgetLocked()) return shared;  // never fits
  EvictPlanLocked(shared->bytes);
  plan_lru_.push_front(shared);
  for (const auto& k : shared->keys) plan_map_.emplace(k, plan_lru_.begin());
  stats_.plan.bytes += static_cast<int64_t>(shared->bytes);
  stats_.plan.entries++;
  return shared;
}

void QueryCache::EvictPlanLocked(size_t needed) {
  while (!plan_lru_.empty() &&
         static_cast<size_t>(stats_.plan.bytes) + needed >
             PlanBudgetLocked()) {
    const PlanEntryPtr& victim = plan_lru_.back();
    for (const auto& k : victim->keys) plan_map_.erase(k);
    stats_.plan.bytes -= static_cast<int64_t>(victim->bytes);
    stats_.plan.entries--;
    plan_lru_.pop_back();
    stats_.plan.evictions++;
  }
}

bool QueryCache::LookupSubplan(const algebra::Op& op, bat::Table* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sub_map_.find(op.cache_hash);
  if (it != sub_map_.end()) {
    for (SubLru::iterator e : it->second) {
      // Hash match is a candidate only: confirm with the deep
      // structural check before serving (collisions must never swap
      // one query's subtree for another's).
      if (alg::StructurallyEqual(*e->subtree, op)) {
        sub_lru_.splice(sub_lru_.begin(), sub_lru_, e);
        *out = e->table;  // shallow: columns shared, immutable
        stats_.subplan.hits++;
        return true;
      }
    }
  }
  stats_.subplan.misses++;
  return false;
}

bool QueryCache::InsertSubplan(const algebra::OpPtr& subtree,
                               const bat::Table& t, int64_t cost_ns,
                               uint64_t db_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  // A query that synced before a registration may finish (and publish)
  // after the invalidation sweep: its result would reintroduce stale
  // bytes the sweep just removed, so it is dropped.
  if (generation_seen_ && db_generation != generation_) return true;
  uint64_t hash = subtree->cache_hash;
  auto it = sub_map_.find(hash);
  if (it != sub_map_.end()) {
    for (SubLru::iterator e : it->second) {
      if (alg::StructurallyEqual(*e->subtree, *subtree)) return true;  // raced
    }
  }
  // Cost-based admission: a candidate that evaluated faster than the
  // floor is cheaper to recompute than to let it displace real work.
  if (min_cost_ns_ > 0 && cost_ns < min_cost_ns_) {
    stats_.admission_rejects++;
    return false;
  }
  SubEntry entry;
  entry.hash = hash;
  entry.subtree = subtree;
  entry.table = t;
  entry.bytes = t.AllocBytes() + alg::ApproxPlanBytes(subtree);
  entry.cost_ns = cost_ns;
  entry.docs = subtree->cache_docs;
  entry.docs_unknown = subtree->cache_docs_unknown;
  entry.value_free = subtree->cache_value_free;
  if (entry.bytes > SubBudgetLocked()) return true;  // would never fit
  EvictSubLocked(entry.bytes);
  stats_.subplan.bytes += static_cast<int64_t>(entry.bytes);
  stats_.subplan.entries++;
  sub_lru_.push_front(std::move(entry));
  sub_map_[hash].push_back(sub_lru_.begin());
  return true;
}

void QueryCache::EraseSubLocked(SubLru::iterator it) {
  auto& bucket = sub_map_[it->hash];
  for (auto bit = bucket.begin(); bit != bucket.end(); ++bit) {
    if (*bit == it) {
      bucket.erase(bit);
      break;
    }
  }
  if (bucket.empty()) sub_map_.erase(it->hash);
  stats_.subplan.bytes -= static_cast<int64_t>(it->bytes);
  stats_.subplan.entries--;
  sub_lru_.erase(it);
}

void QueryCache::EvictSubLocked(size_t needed) {
  while (!sub_lru_.empty() &&
         static_cast<size_t>(stats_.subplan.bytes) + needed >
             SubBudgetLocked()) {
    // Victim: lowest cost density (evaluation ns per resident byte);
    // equal densities fall back to least recently used. Scanning back
    // to front and replacing only on a strictly lower density yields
    // exactly that entry.
    auto victim = std::prev(sub_lru_.end());
    for (auto it = std::prev(sub_lru_.end()); it != sub_lru_.begin();) {
      --it;
      if (LowerDensity(it->cost_ns, it->bytes, victim->cost_ns,
                       victim->bytes)) {
        victim = it;
      }
    }
    EraseSubLocked(victim);
    stats_.subplan.evictions++;
  }
}

CacheStats QueryCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.budget_bytes = static_cast<int64_t>(budget_);
  s.min_cost_us = min_cost_ns_ / 1000;
  s.subplan_entries.reserve(sub_lru_.size());
  for (const SubEntry& e : sub_lru_) {
    s.subplan_entries.push_back(SubplanEntryCost{
        e.hash, static_cast<int64_t>(e.bytes), e.cost_ns / 1000});
  }
  return s;
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

void QueryCache::ClearLocked() {
  // Resident state goes; cumulative hit/miss/eviction counters stay.
  plan_map_.clear();
  plan_lru_.clear();
  sub_map_.clear();
  sub_lru_.clear();
  stats_.plan.entries = 0;
  stats_.plan.bytes = 0;
  stats_.subplan.entries = 0;
  stats_.subplan.bytes = 0;
}

void QueryCache::SetBudget(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = bytes;
  EvictPlanLocked(0);
  EvictSubLocked(0);
}

size_t QueryCache::budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

void QueryCache::SetMinCostUs(int64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  min_cost_ns_ = us * 1000;
}

int64_t QueryCache::min_cost_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_cost_ns_ / 1000;
}

std::vector<std::string> QueryCache::ResidentPlanKeysForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(plan_map_.size());
  for (const auto& [k, it] : plan_map_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// --- candidate annotation -------------------------------------------------

namespace {

/// Operators whose results depend on per-query state: node construction
/// allocates fragment ids from the query's FragmentStore, so identical
/// subtrees yield different (correct) items on every run.
bool IsImpure(alg::OpKind k) {
  return k == alg::OpKind::kElemConstr || k == alg::OpKind::kTextConstr ||
         k == alg::OpKind::kAttrConstr;
}

/// Operators that can synthesize or transform string values. If one of
/// these feeds a DocRoot's name input, the document name may be a
/// string no constant scan can predict, so the dependency set is
/// unresolvable (the subtree then depends on every document).
bool ComputesStrings(alg::OpKind k) {
  return k == alg::OpKind::kFun1 || k == alg::OpKind::kFun2 ||
         k == alg::OpKind::kStrJoin || k == alg::OpKind::kAggr;
}

/// Operators that can read a node's *value* (atomization, string
/// synthesis, value comparison, serialization). A subtree free of
/// these computes a function of document structure alone — pre ranks,
/// sizes, levels, kinds, tag properties — all of which a content-only
/// update provably keeps bit-identical, so its cached result can be
/// repaired (frag re-pointing) instead of evicted. Structural joins,
/// selections over precomputed booleans, sorts, row numbering, and
/// projections only route items; they never look inside the value
/// column. kThetaJoin is included because its predicate compares cell
/// values generically; kFun1 conservatively covers name/string/number
/// accessors alike.
bool ReadsNodeValues(alg::OpKind k) {
  return k == alg::OpKind::kFun1 || k == alg::OpKind::kFun2 ||
         k == alg::OpKind::kAggr || k == alg::OpKind::kStrJoin ||
         k == alg::OpKind::kThetaJoin || k == alg::OpKind::kSerialize;
}

/// The fn:doc names a DocRoot may resolve, appended to `names`: every
/// string constant in its name-input subtree (Attach values and
/// LitTable cells). Those are the only string sources among the
/// remaining operators — π/σ/joins/etc. route items but never mint
/// them — so the collection is exhaustive unless a string-computing
/// operator appears (or no constant exists at all), which degrades to
/// unknown (the return value). `seen` (by node number) must hold no
/// `stamp` on entry.
bool DocRootNames(const alg::Op& docroot, const alg::PlanNumbering& plan,
                  const StringPool& pool, uint32_t stamp,
                  std::vector<uint32_t>* seen,
                  std::vector<std::string>* names) {
  bool unknown = false;
  const size_t before = names->size();
  std::vector<const alg::Op*> stack = {docroot.children[0].get()};
  auto add_item = [&](const Item& it) {
    if (it.IsStringLike()) names->emplace_back(pool.Get(it.AsStr()));
  };
  while (!stack.empty()) {
    const alg::Op* op = stack.back();
    stack.pop_back();
    uint32_t& mark = (*seen)[plan.IndexOf(op)];
    if (mark == stamp) continue;
    mark = stamp;
    if (ComputesStrings(op->kind)) unknown = true;
    if (op->kind == alg::OpKind::kAttach) add_item(op->attach_val);
    for (const auto& row : op->rows) {
      for (const Item& cell : row) add_item(cell);
    }
    for (const auto& c : op->children) stack.push_back(c.get());
  }
  return unknown || names->size() == before;
}

}  // namespace

void AnnotateCacheCandidates(const algebra::OpPtr& root,
                             const StringPool& pool) {
  const alg::PlanNumbering plan = alg::NumberPlan(root);
  const std::vector<alg::Op*>& order = plan.nodes;
  const size_t n = order.size();

  // Document dependencies: the names every DocRoot may read, sorted and
  // de-duplicated into one list, and each node's set of them as a
  // bitset over that list (all rows in one array).
  std::vector<std::string> doc_names;
  std::vector<uint32_t> seen(n, 0);
  std::vector<std::pair<size_t, size_t>> root_names(n);  // DocRoot's span
  std::vector<uint8_t> unknown(n, 0);
  uint32_t stamp = 0;
  for (size_t i = 0; i < n; ++i) {
    if (order[i]->kind != alg::OpKind::kDocRoot) continue;
    const size_t first = doc_names.size();
    unknown[i] =
        DocRootNames(*order[i], plan, pool, ++stamp, &seen, &doc_names);
    root_names[i] = {first, doc_names.size()};
  }
  std::vector<std::string> sorted = doc_names;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const size_t words = (sorted.size() + 63) / 64;
  std::vector<uint64_t> deps(n * words, 0);
  auto dep_row = [&](size_t i) { return deps.data() + i * words; };

  std::vector<uint8_t> pure(n), has_doc(n), value_free(n);
  for (size_t i = 0; i < n; ++i) {
    alg::Op* op = order[i];
    bool p = !IsImpure(op->kind);
    bool d = op->kind == alg::OpKind::kStep ||
             op->kind == alg::OpKind::kDocRoot ||
             op->kind == alg::OpKind::kPathScan;
    bool vf = !ReadsNodeValues(op->kind);
    uint64_t* row = dep_row(i);
    for (const auto& c : op->children) {
      const size_t k = plan.IndexOf(c.get());
      p = p && pure[k];
      d = d || has_doc[k];
      vf = vf && value_free[k];
      unknown[i] = unknown[i] || unknown[k];
      for (size_t w = 0; w < words; ++w) row[w] |= dep_row(k)[w];
    }
    for (size_t j = root_names[i].first; j < root_names[i].second; ++j) {
      size_t b = static_cast<size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), doc_names[j]) -
          sorted.begin());
      row[b >> 6] |= uint64_t{1} << (b & 63);
    }
    pure[i] = p;
    has_doc[i] = d;
    value_free[i] = vf;
    op->cache_cand = false;
    op->cache_hash = 0;
    op->cache_docs.clear();
    op->cache_docs_unknown = false;
    op->cache_value_free = false;
  }
  // Candidates: maximal pure document-derived subtrees (pure child of
  // an impure parent, or a pure root), plus every pure Step — axis
  // steps are the expensive, highly reusable unit, worth a cache entry
  // even in the middle of a larger pure region.
  auto mark = [&](alg::Op* op) {
    const size_t i = plan.IndexOf(op);
    op->cache_cand = pure[i] && has_doc[i];
  };
  for (size_t i = 0; i < n; ++i) {
    alg::Op* op = order[i];
    if (op->kind == alg::OpKind::kStep ||
        op->kind == alg::OpKind::kPathScan) {
      mark(op);
    }
    if (!pure[i]) {
      for (const auto& c : op->children) mark(c.get());
    }
  }
  mark(root.get());
  const std::vector<uint64_t> hashes = alg::StructuralHashes(plan);
  for (size_t i = 0; i < n; ++i) {
    alg::Op* op = order[i];
    if (op->cache_cand) op->cache_hash = hashes[i];
    // Dependency annotations go on candidates (the subplan cache reads
    // them at insert) and on the root (the plan cache's entry-level
    // dependency set).
    if (op->cache_cand || op == root.get()) {
      for (size_t b = 0; b < sorted.size(); ++b) {
        if ((dep_row(i)[b >> 6] >> (b & 63)) & 1) {
          op->cache_docs.push_back(sorted[b]);
        }
      }
      op->cache_docs_unknown = unknown[i];
      op->cache_value_free = value_free[i];
    }
  }
}

size_t CacheDefaultBudgetBytes() {
  static const size_t kBytes = [] {
    const char* e = std::getenv("PF_CACHE_MB");
    if (e == nullptr || *e == '\0') return size_t{64} << 20;
    long mb = std::strtol(e, nullptr, 10);
    if (mb <= 0) return size_t{0};
    return static_cast<size_t>(mb) << 20;
  }();
  return kBytes;
}

int64_t CacheDefaultMinCostUs() {
  static const int64_t kUs = [] {
    const char* e = std::getenv("PF_CACHE_MIN_COST_US");
    if (e == nullptr || *e == '\0') return int64_t{100};
    long us = std::strtol(e, nullptr, 10);
    if (us <= 0) return int64_t{0};
    return static_cast<int64_t>(us);
  }();
  return kUs;
}

bool CacheRepairDefault() {
  static const bool kOn = [] {
    const char* e = std::getenv("PF_CACHE_REPAIR");
    return e == nullptr || std::string_view(e) != "0";
  }();
  return kOn;
}

}  // namespace pathfinder::engine
