// Randomized model checking of engine::QueryCache.
//
// A naive reference model (plain lists and maps, no budgets shared with
// the real implementation) re-implements the cache's documented
// semantics: plan-section LRU, subplan cost-density eviction with the
// admission floor, per-document invalidation split by structure vs
// content version (document updates), in-place repair of value-free
// subplan entries across content-only updates, alias repair and budget
// shrinking. A seeded driver runs random operation sequences — plan and
// subplan traffic interleaved with document registrations, structural
// updates and content-only updates — against both, and demands
// identical observable state after every single operation:
// hit/miss/eviction/invalidation/repair counters, the MRU-ordered
// resident subplan section, the full resident plan key set, and deep
// equality of every served subplan table (a repaired entry's node items
// must reference exactly the updated snapshot's fragment id, bit for
// bit).

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/hash.h"
#include "algebra/op.h"
#include "base/rng.h"
#include "bat/column.h"
#include "bat/table.h"
#include "engine/cache.h"
#include "xml/database.h"

namespace pathfinder {
namespace {

/// Column id of `name` (tests name columns by string).
bat::ColId C(std::string_view name) { return bat::InternCol(name); }

namespace alg = pathfinder::algebra;
using engine::CacheStats;
using engine::PlanCacheEntry;
using engine::PlanEntryPtr;
using engine::QueryCache;

constexpr int kNumSubs = 24;     // distinct cacheable subtrees
constexpr int kNumDocs = 4;      // document-name universe
constexpr int kNumGroups = 8;    // canonical-core groups
constexpr int kNumRaw = 16;      // raw query spellings (2 per group)
constexpr int kOpsPerSeed = 400;
constexpr int kSeeds = 60;

std::string DocName(int d) { return "doc" + std::to_string(d) + ".xml"; }

// The driver's stand-in for xml::Database's per-name bookkeeping.
struct DriverDoc {
  uint64_t structure = 0;
  uint64_t content = 0;
  uint32_t frag = 0;
};

// --- reference model ------------------------------------------------------

struct ModelPlanEntry {
  std::vector<std::string> keys;
  size_t bytes = 0;
  std::vector<std::string> deps;
  bool unknown = false;
};

struct ModelSubEntry {
  int idx = -1;  // which universe subtree (identity stand-in)
  uint64_t hash = 0;
  size_t bytes = 0;
  int64_t cost_ns = 0;
  std::vector<std::string> docs;
  bool unknown = false;
  bool value_free = false;
  // Expected item column of the cached table — remapped in place when
  // the entry is repaired, so a later lookup can be checked deep.
  std::vector<Item> items;
};

bool LowerDensity(int64_t a_cost, size_t a_bytes, int64_t b_cost,
                  size_t b_bytes) {
  return static_cast<unsigned __int128>(a_cost) * b_bytes <
         static_cast<unsigned __int128>(b_cost) * a_bytes;
}

bool DepsHit(const std::vector<std::string>& deps, bool unknown,
             const std::unordered_set<std::string>& changed) {
  if (unknown) return true;
  for (const auto& d : deps) {
    if (changed.count(d)) return true;
  }
  return false;
}

struct Model {
  struct DocSync {
    uint64_t structure = 0;
    uint64_t content = 0;
    uint32_t frag = 0;
  };

  size_t budget;
  int64_t min_cost_ns;
  bool gen_seen = false;
  uint64_t gen = 0;
  std::map<std::string, DocSync> versions;

  std::list<ModelPlanEntry> plan;  // front = most recent
  std::list<ModelSubEntry> sub;    // front = most recent

  int64_t plan_hits = 0, plan_misses = 0, plan_evictions = 0;
  int64_t sub_hits = 0, sub_misses = 0, sub_evictions = 0;
  int64_t invalidations = 0, per_doc_invalidations = 0, admission_rejects = 0;
  int64_t subplan_repairs = 0;

  size_t PlanBudget() const { return budget / 4; }
  size_t SubBudget() const { return budget - budget / 4; }

  size_t PlanBytes() const {
    size_t b = 0;
    for (const auto& e : plan) b += e.bytes;
    return b;
  }
  size_t SubBytes() const {
    size_t b = 0;
    for (const auto& e : sub) b += e.bytes;
    return b;
  }

  std::list<ModelPlanEntry>::iterator FindPlan(const std::string& key) {
    for (auto it = plan.begin(); it != plan.end(); ++it) {
      for (const auto& k : it->keys) {
        if (k == key) return it;
      }
    }
    return plan.end();
  }

  void EvictPlan(size_t needed) {
    while (!plan.empty() && PlanBytes() + needed > PlanBudget()) {
      plan.pop_back();
      plan_evictions++;
    }
  }

  void EvictSub(size_t needed) {
    while (!sub.empty() && SubBytes() + needed > SubBudget()) {
      auto victim = std::prev(sub.end());
      for (auto it = std::prev(sub.end()); it != sub.begin();) {
        --it;
        if (LowerDensity(it->cost_ns, it->bytes, victim->cost_ns,
                         victim->bytes)) {
          victim = it;
        }
      }
      sub.erase(victim);
      sub_evictions++;
    }
  }

  // Mirrors QueryCache::BeginQuery + InvalidateDocsLocked: names whose
  // structure version moved (or that appeared/disappeared) invalidate;
  // names with only a content move repair value-free entries when
  // `repair` is on and invalidate otherwise.
  void BeginQuery(uint64_t g,
                  const std::vector<xml::Database::DocVersion>& docs,
                  bool repair) {
    if (gen_seen && gen != g) {
      invalidations++;
      std::unordered_set<std::string> structural, content;
      std::map<uint32_t, uint32_t> remap;
      for (const auto& d : docs) {
        auto it = versions.find(d.name);
        if (it == versions.end() || it->second.structure != d.structure) {
          structural.insert(d.name);
        } else if (it->second.content != d.content) {
          if (repair) {
            content.insert(d.name);
            remap[it->second.frag] = d.frag;
          } else {
            structural.insert(d.name);
          }
        }
      }
      for (const auto& [name, v] : versions) {
        bool present = false;
        for (const auto& d : docs) {
          if (d.name == name) {
            present = true;
            break;
          }
        }
        if (!present) structural.insert(name);
      }
      if (!structural.empty()) {
        for (auto it = plan.begin(); it != plan.end();) {
          if (DepsHit(it->deps, it->unknown, structural)) {
            it = plan.erase(it);
            per_doc_invalidations++;
          } else {
            ++it;
          }
        }
      }
      if (!structural.empty() || !content.empty()) {
        for (auto it = sub.begin(); it != sub.end();) {
          bool drop = DepsHit(it->docs, it->unknown, structural);
          bool chit = !drop && DepsHit(it->docs, it->unknown, content);
          if (chit && it->value_free && !it->unknown) {
            for (Item& item : it->items) {
              if (!item.IsNode()) continue;
              auto rit = remap.find(item.NodeFrag());
              if (rit == remap.end()) continue;
              item = item.kind == ItemKind::kAttr
                         ? Item::Attr(rit->second, item.NodePre())
                         : Item::Node(rit->second, item.NodePre());
            }
            subplan_repairs++;
            ++it;
          } else if (drop || chit) {
            it = sub.erase(it);
            per_doc_invalidations++;
          } else {
            ++it;
          }
        }
      }
    }
    if (!gen_seen || gen != g) {
      versions.clear();
      for (const auto& d : docs) {
        versions[d.name] = DocSync{d.structure, d.content, d.frag};
      }
    }
    gen = g;
    gen_seen = true;
  }

  // Mirrors LookupPlan. Returns whether the key hit.
  bool LookupPlan(const std::string& key) {
    auto it = FindPlan(key);
    if (it == plan.end()) {
      plan_misses++;
      return false;
    }
    plan_hits++;
    plan.splice(plan.begin(), plan, it);
    return true;
  }

  // Mirrors AliasPlan for a just-hit (front) entry.
  void AliasFront(const std::string& key) {
    if (FindPlan(key) != plan.end()) return;
    plan.front().keys.push_back(key);
    plan.front().bytes += key.size();
  }

  // Mirrors InsertPlan for absent raw/core keys.
  void InsertPlan(const std::string& raw, const std::string& core,
                  size_t base_bytes, std::vector<std::string> deps,
                  bool unknown) {
    ModelPlanEntry e;
    e.keys = {raw, core};
    e.bytes = base_bytes + raw.size() + core.size();
    e.deps = std::move(deps);
    e.unknown = unknown;
    if (e.bytes > PlanBudget()) return;  // never fits: not resident
    EvictPlan(e.bytes);
    plan.push_front(std::move(e));
  }

  // Mirrors LookupSubplan; on hit, the returned entry (now at the
  // front) carries the expected table items for the deep check.
  const ModelSubEntry* LookupSub(int idx) {
    for (auto it = sub.begin(); it != sub.end(); ++it) {
      if (it->idx == idx) {
        sub.splice(sub.begin(), sub, it);
        sub_hits++;
        return &sub.front();
      }
    }
    sub_misses++;
    return nullptr;
  }

  // Mirrors InsertSubplan. Returns the admission verdict.
  bool InsertSub(int idx, uint64_t hash, size_t bytes, int64_t cost_ns,
                 std::vector<std::string> docs, bool unknown, bool value_free,
                 std::vector<Item> items, uint64_t db_generation) {
    if (gen_seen && db_generation != gen) return true;  // stale publisher
    for (const auto& e : sub) {
      if (e.idx == idx) return true;  // duplicate: silent no-op
    }
    if (min_cost_ns > 0 && cost_ns < min_cost_ns) {
      admission_rejects++;
      return false;
    }
    ModelSubEntry e;
    e.idx = idx;
    e.hash = hash;
    e.bytes = bytes;
    e.cost_ns = cost_ns;
    e.docs = std::move(docs);
    e.unknown = unknown;
    e.value_free = value_free;
    e.items = std::move(items);
    if (e.bytes > SubBudget()) return true;  // would never fit
    EvictSub(e.bytes);
    sub.push_front(std::move(e));
    return true;
  }

  void SetBudget(size_t b) {
    budget = b;
    EvictPlan(0);
    EvictSub(0);
  }

  void Clear() {
    plan.clear();
    sub.clear();
  }

  std::vector<std::string> SortedPlanKeys() const {
    std::vector<std::string> keys;
    for (const auto& e : plan) {
      keys.insert(keys.end(), e.keys.begin(), e.keys.end());
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }
};

// --- driver ---------------------------------------------------------------

// The fixed universe one seed runs against: distinct subtrees (with
// hashes, docs, value-free flags) plus deterministic per-group plan
// entry shapes, so model and cache see byte-identical inputs even when
// an entry is re-inserted after eviction. Result *tables* are built at
// insert time (MakeSubTable): their node items reference the fragment
// currently bound to the dependency documents, which is exactly what a
// real executor would cache — and what invalidation must repair.
struct Universe {
  std::vector<alg::OpPtr> subs;

  Universe() {
    for (int i = 0; i < kNumSubs; ++i) {
      alg::OpPtr op = alg::Attach(alg::EmptySeq(), C("c"),
                                  bat::ColType::kInt, Item::Int(i));
      op->cache_cand = true;
      op->cache_hash = alg::StructuralHash(op);
      op->cache_docs = SubDocs(i);
      op->cache_docs_unknown = SubUnknown(i);
      op->cache_value_free = SubValueFree(i);
      subs.push_back(op);
    }
  }

  static std::vector<std::string> SubDocs(int i) {
    if (SubUnknown(i)) return {};
    std::vector<std::string> d = {DocName(i % kNumDocs)};
    if (i % 5 == 0) {
      std::string extra = DocName((i + 1) % kNumDocs);
      if (extra != d[0]) d.push_back(extra);
    }
    std::sort(d.begin(), d.end());
    return d;
  }
  static bool SubUnknown(int i) { return i % 11 == 3; }
  // Mix of repairable (structure-only) and value-reading subtrees.
  static bool SubValueFree(int i) { return i % 3 != 0; }
  static size_t SubRows(int i) {
    return static_cast<size_t>((i * 37) % 512) + 1;
  }

  static std::string RawKey(int r) { return "r:q" + std::to_string(r); }
  static std::string CoreKey(int r) {
    return "c:group" + std::to_string(r % kNumGroups);
  }
  static size_t GroupBaseBytes(int r) {
    return 200 + static_cast<size_t>(r % kNumGroups) * 150;
  }
  static std::vector<std::string> GroupDeps(int r) {
    if (GroupUnknown(r)) return {};
    return {DocName((r % kNumGroups) % kNumDocs)};
  }
  static bool GroupUnknown(int r) { return r % kNumGroups == 5; }
};

// The table a query evaluating sub `i` would materialize right now:
// an int payload column plus an item column mixing element references,
// attribute references (both bound to the dependency documents'
// *current* frags) and atomics. Exact-capacity columns keep AllocBytes
// deterministic across re-inserts, so the byte accounting the model
// mirrors never drifts.
bat::Table MakeSubTable(int i, const std::map<std::string, DriverDoc>& store) {
  size_t rows = Universe::SubRows(i);
  auto ints = bat::Column::MakeInt(rows);
  for (size_t r = 0; r < rows; ++r) ints->ints().push_back(i);
  auto items = bat::Column::MakeItem(rows);
  std::vector<std::string> docs = Universe::SubDocs(i);
  for (size_t r = 0; r < rows; ++r) {
    if (docs.empty() || r % 3 == 2) {
      items->items().push_back(Item::Int(static_cast<int64_t>(r)));
      continue;
    }
    uint32_t frag = store.at(docs[r % docs.size()]).frag;
    uint32_t pre = static_cast<uint32_t>(r);
    items->items().push_back(r % 4 == 0 ? Item::Attr(frag, pre)
                                        : Item::Node(frag, pre));
  }
  bat::Table t;
  t.AddCol(C("x"), std::move(ints));
  t.AddCol(C("it"), std::move(items));
  return t;
}

void CheckAgainstModel(const QueryCache& cache, const Model& m) {
  CacheStats s = cache.Stats();
  EXPECT_EQ(s.plan.hits, m.plan_hits);
  EXPECT_EQ(s.plan.misses, m.plan_misses);
  EXPECT_EQ(s.plan.evictions, m.plan_evictions);
  EXPECT_EQ(s.plan.entries, static_cast<int64_t>(m.plan.size()));
  EXPECT_EQ(s.plan.bytes, static_cast<int64_t>(m.PlanBytes()));
  EXPECT_EQ(s.subplan.hits, m.sub_hits);
  EXPECT_EQ(s.subplan.misses, m.sub_misses);
  EXPECT_EQ(s.subplan.evictions, m.sub_evictions);
  EXPECT_EQ(s.subplan.entries, static_cast<int64_t>(m.sub.size()));
  EXPECT_EQ(s.subplan.bytes, static_cast<int64_t>(m.SubBytes()));
  EXPECT_EQ(s.invalidations, m.invalidations);
  EXPECT_EQ(s.per_doc_invalidations, m.per_doc_invalidations);
  EXPECT_EQ(s.admission_rejects, m.admission_rejects);
  EXPECT_EQ(s.subplan_repairs, m.subplan_repairs);
  EXPECT_EQ(s.budget_bytes, static_cast<int64_t>(m.budget));
  EXPECT_EQ(s.min_cost_us, m.min_cost_ns / 1000);

  // Resident subplan section, most recent first, entry for entry.
  // Repair must keep an entry's byte charge: fresh same-capacity
  // columns replace the remapped ones.
  ASSERT_EQ(s.subplan_entries.size(), m.sub.size());
  size_t i = 0;
  for (const ModelSubEntry& e : m.sub) {
    EXPECT_EQ(s.subplan_entries[i].hash, e.hash) << "entry " << i;
    EXPECT_EQ(s.subplan_entries[i].bytes, static_cast<int64_t>(e.bytes))
        << "entry " << i;
    EXPECT_EQ(s.subplan_entries[i].cost_us, e.cost_ns / 1000)
        << "entry " << i;
    ++i;
  }

  EXPECT_EQ(cache.ResidentPlanKeysForTest(), m.SortedPlanKeys());
}

void RunSeed(uint64_t seed, const Universe& u) {
  Rng rng(seed);

  // Budget small enough that evictions actually happen (sub tables run
  // up to ~8 KB each), floor pinned explicitly so the ambient
  // PF_CACHE_MIN_COST_US can't skew the run.
  size_t budget = 1u << (14 + rng.Below(3));  // 16/32/64 KB
  int64_t min_cost_us = 50;
  QueryCache cache(budget);
  cache.SetMinCostUs(min_cost_us);

  Model m;
  m.budget = budget;
  m.min_cost_ns = min_cost_us * 1000;

  // Driver-side document store: per-name structure/content versions and
  // bound frag under one monotonic generation, exactly like
  // xml::Database with updates applied.
  uint64_t gen = 0;
  uint32_t next_frag = 0;
  std::map<std::string, DriverDoc> store;
  for (int d = 0; d < kNumDocs; ++d) {
    ++gen;
    store[DocName(d)] = DriverDoc{gen, gen, next_frag++};
  }
  auto version_vec = [&] {
    std::vector<xml::Database::DocVersion> v;
    v.reserve(store.size());
    for (const auto& [name, d] : store) {
      v.push_back(xml::Database::DocVersion{name, d.structure, d.content,
                                            d.frag});
    }
    return v;
  };
  auto sync = [&](bool repair) {
    cache.BeginQuery(gen, version_vec(), repair);
    m.BeginQuery(gen, version_vec(), repair);
  };
  auto pick_doc = [&]() -> DriverDoc& {
    return store[DocName(static_cast<int>(rng.Below(kNumDocs)))];
  };

  sync(true);
  CheckAgainstModel(cache, m);

  for (int op = 0; op < kOpsPerSeed; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    switch (rng.Below(10)) {
      case 0: {  // plan-cache query: lookup -> alias-repair -> insert
        int r = static_cast<int>(rng.Below(kNumRaw));
        std::string raw = Universe::RawKey(r);
        std::string core = Universe::CoreKey(r);
        PlanEntryPtr e = cache.LookupPlan(raw);
        bool mhit = m.LookupPlan(raw);
        ASSERT_EQ(e != nullptr, mhit);
        if (!e) {
          PlanEntryPtr via_core = cache.LookupPlan(core);
          bool mcore = m.LookupPlan(core);
          ASSERT_EQ(via_core != nullptr, mcore);
          if (via_core) {
            cache.AliasPlan(raw, via_core);
            m.AliasFront(raw);
          } else {
            PlanCacheEntry pe;
            pe.bytes = Universe::GroupBaseBytes(r);
            pe.doc_deps = Universe::GroupDeps(r);
            pe.doc_deps_unknown = Universe::GroupUnknown(r);
            cache.InsertPlan(raw, core, std::move(pe));
            m.InsertPlan(raw, core, Universe::GroupBaseBytes(r),
                         Universe::GroupDeps(r), Universe::GroupUnknown(r));
          }
        }
        break;
      }
      case 1:
      case 2: {  // subplan lookup, deep-checked against the model
        int i = static_cast<int>(rng.Below(kNumSubs));
        bat::Table out;
        bool hit = cache.LookupSubplan(*u.subs[i], &out);
        const ModelSubEntry* me = m.LookupSub(i);
        ASSERT_EQ(hit, me != nullptr);
        if (hit) {
          ASSERT_EQ(out.rows(), me->items.size());
          int ci = out.FindCol(C("it"));
          ASSERT_GE(ci, 0);
          // Deep equality: a surviving (possibly repaired) entry must
          // serve exactly the items the model predicts — repaired node
          // references point at the updated snapshot's frag.
          EXPECT_TRUE(out.col(static_cast<size_t>(ci))->items() == me->items)
              << "served table diverges for sub " << i;
        }
        break;
      }
      case 3:
      case 4: {  // subplan insert with a random measured cost
        int i = static_cast<int>(rng.Below(kNumSubs));
        int64_t cost_ns = static_cast<int64_t>(rng.Below(300)) * 1000;
        // Occasionally publish from a stale generation — a query that
        // began before a racing registration; must be a silent no-op.
        uint64_t g = rng.Chance(0.1) ? gen - 1 : gen;
        bat::Table t = MakeSubTable(i, store);
        size_t bytes = t.AllocBytes() + alg::ApproxPlanBytes(u.subs[i]);
        std::vector<Item> items = t.col(1)->items();
        bool adm = cache.InsertSubplan(u.subs[i], t, cost_ns, g);
        bool madm = m.InsertSub(i, u.subs[i]->cache_hash, bytes, cost_ns,
                                Universe::SubDocs(i), Universe::SubUnknown(i),
                                Universe::SubValueFree(i), std::move(items),
                                g);
        ASSERT_EQ(adm, madm);
        break;
      }
      case 5: {  // (re-)register one or two documents, then sync
        int n = rng.Chance(0.25) ? 2 : 1;
        for (int k = 0; k < n; ++k) {
          DriverDoc& d = pick_doc();
          d.structure = d.content = ++gen;
          d.frag = next_frag++;
        }
        sync(rng.Chance(0.5));
        break;
      }
      case 6: {  // no-change sync (fast path) or floor change
        if (rng.Chance(0.5)) {
          sync(rng.Chance(0.5));
        } else {
          int64_t us = static_cast<int64_t>(rng.Below(3)) * 50;  // 0/50/100
          cache.SetMinCostUs(us);
          m.min_cost_ns = us * 1000;
        }
        break;
      }
      case 7: {  // budget churn (shrink evicts immediately) or clear
        if (rng.Chance(0.15)) {
          cache.Clear();
          m.Clear();
        } else {
          size_t b = 1u << (13 + rng.Below(4));  // 8..64 KB
          cache.SetBudget(b);
          m.SetBudget(b);
        }
        break;
      }
      case 8: {  // content-only update (leaf replace-value), then sync.
        // Mostly with repair on — value-free entries must survive with
        // their frags re-pointed — and sometimes with repair off, where
        // the content move invalidates like a structural one.
        DriverDoc& d = pick_doc();
        d.content = ++gen;
        d.frag = next_frag++;
        sync(rng.Chance(0.75));
        break;
      }
      case 9: {  // structural update (insert/delete), then sync: always
                 // invalidates dependents, repair flag irrelevant.
        DriverDoc& d = pick_doc();
        d.structure = d.content = ++gen;
        d.frag = next_frag++;
        sync(rng.Chance(0.5));
        break;
      }
    }
    CheckAgainstModel(cache, m);
    if (::testing::Test::HasFailure()) return;  // first divergence only
  }
}

TEST(CacheModelTest, MatchesReferenceModelAcrossSeeds) {
  Universe u;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSeed(seed, u);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "model divergence at seed " << seed;
  }
}

}  // namespace
}  // namespace pathfinder
