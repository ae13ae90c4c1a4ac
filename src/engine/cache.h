#ifndef PATHFINDER_ENGINE_CACHE_H_
#define PATHFINDER_ENGINE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/op.h"
#include "base/string_pool.h"
#include "bat/table.h"
#include "compiler/compile.h"
#include "frontend/ast.h"
#include "opt/optimize.h"
#include "xml/database.h"

namespace pathfinder::engine {

/// Counters of one cache section (exposed in profiler text/JSON).
/// `entries`/`bytes` describe current residency and are maintained by
/// every mutation path (insert, eviction, invalidation, clear), so a
/// snapshot taken anywhere is consistent — never negative, never stale.
struct CacheSectionStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;  ///< budget-pressure evictions only
  int64_t entries = 0;    ///< resident entries
  int64_t bytes = 0;      ///< resident bytes
};

/// Cost/size of one resident subplan entry (MRU-first in snapshots).
struct SubplanEntryCost {
  uint64_t hash = 0;
  int64_t bytes = 0;
  int64_t cost_us = 0;  ///< measured evaluation wall time of the subtree
};

struct CacheStats {
  CacheSectionStats plan;
  CacheSectionStats subplan;
  /// Generation-change events processed by BeginQuery (each one may
  /// drop any number of entries — see per_doc_invalidations).
  int64_t invalidations = 0;
  /// Entries dropped because a document they depend on was
  /// (re)registered. Entries for untouched documents survive.
  int64_t per_doc_invalidations = 0;
  /// Subplan candidates refused by the cost-based admission floor.
  int64_t admission_rejects = 0;
  /// Subplan entries *repaired* across a content-only document update
  /// instead of evicted: the entry was value-free (its result depends
  /// on document structure only), so its cached node items were
  /// re-pointed at the updated snapshot's fragment id.
  int64_t subplan_repairs = 0;
  int64_t budget_bytes = 0;
  int64_t min_cost_us = 0;
  /// Per-entry cost/size of the resident subplan section, MRU-first
  /// (cost-density eviction is decided from exactly these numbers).
  std::vector<SubplanEntryCost> subplan_entries;
};

/// Everything the api layer needs to skip the frontend/compile/optimize
/// phases on a repeated query. `plan_opt` is fully annotated (cache
/// candidates) and is executed as-is — cached plans
/// are never re-annotated, so concurrent executions of the same entry
/// cannot race on plan-node annotation fields.
struct PlanCacheEntry {
  frontend::ExprPtr core;
  algebra::OpPtr plan;      ///< compiled, pre-optimization
  algebra::OpPtr plan_opt;  ///< optimized + cache annotated
  compiler::CompileStats compile_stats;
  opt::OptimizeStats opt_stats;
  /// Compile-only stub: perfbench/src/cold.cc is its only user, and
  /// ROADMAP item 4, step 1 (TracedRun calls Run) deletes it. Nothing
  /// reads it.
  opt::PipelineStats pipeline_stats;
  size_t bytes = 0;
  /// Every map key aliasing this entry ("r:"-prefixed raw query texts
  /// plus the one "c:" canonical-core key) — erased together on evict.
  std::vector<std::string> keys;
  /// Documents the plan may read (root annotation of `plan_opt`, see
  /// AnnotateCacheCandidates). The entry is dropped when any of them
  /// is re-registered; `doc_deps_unknown` entries drop on any change.
  std::vector<std::string> doc_deps;
  bool doc_deps_unknown = false;
};

using PlanEntryPtr = std::shared_ptr<const PlanCacheEntry>;

/// Cross-query cache: optimized plans keyed by query text, and
/// materialized subplan results keyed by structural plan hash.
///
/// One instance lives inside api::Pathfinder and is shared by every
/// query it runs; all methods are thread-safe (single internal mutex —
/// the guarded work is map lookups and shallow Table copies, never
/// operator evaluation). Byte budget: the plan section may use at most
/// a quarter of the total, the subplan section the rest.
///
/// Eviction: the plan section is plain LRU. The subplan section evicts
/// by lowest cost density first (measured evaluation nanoseconds per
/// resident byte; ties fall back to least recently used), so cheap
/// scans cannot displace expensive join results; admission additionally
/// requires an entry's measured cost to clear `min_cost_us` (the
/// PF_CACHE_MIN_COST_US floor, 0 = admit everything).
///
/// Invalidation is per document: BeginQuery diffs the store's per-name
/// registration versions against the last ones it saw and drops exactly
/// the entries whose dependency set intersects the changed names (plus
/// entries with unresolvable dependencies). Entries over untouched
/// documents stay warm across registrations.
class QueryCache {
 public:
  explicit QueryCache(size_t budget_bytes);
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Sync with the store: on a generation change, drop the entries
  /// whose document dependencies intersect the names whose version
  /// changed since the last sync (new, re-registered, removed, or
  /// structurally updated). Names that took only a *content* move
  /// (leaf replace-value; pre ranks bit-identical) are handled more
  /// gently when `repair` is true: plan entries survive untouched, and
  /// value-free subplan entries are repaired in place by re-pointing
  /// their cached node items from the name's old fragment id to the new
  /// one — only value-reading subplans drop. With `repair` false a
  /// content move invalidates like a structural one.
  /// Call once per query, before any lookup, with a fresh
  /// Database::Versions() snapshot (`doc_versions` = its `docs`).
  void BeginQuery(uint64_t db_generation,
                  const std::vector<xml::Database::DocVersion>& doc_versions,
                  bool repair);

  /// Plan lookup by exact ("r:" raw) or canonical ("c:" core) key.
  /// nullptr on miss. A raw-key miss followed by a core-key hit should
  /// be repaired with AliasPlan so the next lookup hits tier 1.
  PlanEntryPtr LookupPlan(const std::string& key);

  /// Register an extra key for an existing entry (tier-2 repair).
  void AliasPlan(const std::string& key, const PlanEntryPtr& entry);

  /// Insert a freshly built plan under both its keys. If a concurrent
  /// query inserted the same raw key first, the resident entry wins and
  /// is returned (insert-if-absent).
  PlanEntryPtr InsertPlan(const std::string& raw_key,
                          const std::string& core_key, PlanCacheEntry entry);

  /// Materialized result of a cache-candidate subtree (`op.cache_hash`
  /// must be set). On hit, `out` receives a shallow copy (columns are
  /// shared and immutable). Counts a hit or miss.
  bool LookupSubplan(const algebra::Op& op, bat::Table* out);

  /// Store a candidate's materialized result; `cost_ns` is the measured
  /// wall time evaluating the subtree (the admission currency).
  /// `subtree` keeps the plan nodes alive for the deep
  /// structural-equality check on later lookups and carries the
  /// document dependencies (Op::cache_docs). `db_generation` must be
  /// the generation the inserting query synced at (BeginQuery): if the
  /// store moved on since, the result may be stale and the insert is a
  /// silent no-op — this closes the race where a slow query publishes
  /// a pre-registration result after the invalidation sweep ran.
  /// Returns false iff the entry was refused by the cost floor;
  /// duplicates, stale generations and entries that could never fit
  /// are silent no-ops returning true.
  bool InsertSubplan(const algebra::OpPtr& subtree, const bat::Table& t,
                     int64_t cost_ns, uint64_t db_generation);

  CacheStats Stats() const;
  void Clear();

  void SetBudget(size_t bytes);
  size_t budget() const;

  /// Admission floor for the subplan section, in microseconds of
  /// measured evaluation time. 0 admits every candidate.
  void SetMinCostUs(int64_t us);
  int64_t min_cost_us() const;

  /// Sorted multimap keys of the resident plan section (aliases
  /// included) — the model-checking test's residency oracle; does not
  /// touch hit/miss counters or recency.
  std::vector<std::string> ResidentPlanKeysForTest() const;

 private:
  struct SubEntry {
    uint64_t hash = 0;
    algebra::OpPtr subtree;
    bat::Table table;
    size_t bytes = 0;
    int64_t cost_ns = 0;
    // Document dependencies, copied from the subtree root's annotation
    // at insert (the shared plan may be evicted later; the entry's
    // invalidation must not depend on it).
    std::vector<std::string> docs;
    bool docs_unknown = false;
    // Copied from Op::cache_value_free: the result is a function of
    // document structure only, so the entry survives content-only
    // updates via fragment-id repair (see BeginQuery).
    bool value_free = false;
  };

  using PlanLru = std::list<PlanEntryPtr>;
  using SubLru = std::list<SubEntry>;

  size_t PlanBudgetLocked() const { return budget_ / 4; }
  size_t SubBudgetLocked() const { return budget_ - budget_ / 4; }
  void EvictPlanLocked(size_t needed);
  void EvictSubLocked(size_t needed);
  void EraseSubLocked(SubLru::iterator it);
  void InvalidateDocsLocked(
      const std::vector<xml::Database::DocVersion>& doc_versions, bool repair);
  void ClearLocked();

  mutable std::mutex mu_;
  size_t budget_;
  int64_t min_cost_ns_;
  uint64_t generation_ = 0;
  bool generation_seen_ = false;
  /// Per-name structure/content versions and the bound fragment id as
  /// of the last BeginQuery sync (the frag is the repair source: every
  /// resident entry's node items reference it, by the InsertSubplan
  /// stale-generation guard).
  struct DocSync {
    uint64_t structure = 0;
    uint64_t content = 0;
    xml::FragId frag = 0;
  };
  std::unordered_map<std::string, DocSync> doc_versions_;

  PlanLru plan_lru_;  // front = most recent
  std::unordered_map<std::string, PlanLru::iterator> plan_map_;

  SubLru sub_lru_;  // front = most recent
  std::unordered_map<uint64_t, std::vector<SubLru::iterator>> sub_map_;

  CacheStats stats_;
};

/// Mark the subtrees of `root` whose materialized results the executor
/// may exchange with a QueryCache: pure (constructor-free) subtrees
/// that touch a document (contain a Step or DocRoot) and are maximal —
/// their parent is impure or absent — plus every pure Step node (axis
/// steps are the expensive, highly reusable building block, worth
/// caching even mid-chain). Sets Op::cache_cand / Op::cache_hash, and
/// records each candidate's (and the root's) document dependencies in
/// Op::cache_docs / Op::cache_docs_unknown — fn:doc name constants are
/// resolved through `pool`. Also computes Op::cache_value_free
/// bottom-up: true iff no operator in the subtree can read a node's
/// *value* (atomization/string functions, aggregates, theta-join
/// compares, serialization), making the cached result repairable across
/// content-only updates. Call only on freshly built plans (never on
/// plans already published to the cache — annotation would race with
/// concurrent executors).
void AnnotateCacheCandidates(const algebra::OpPtr& root,
                             const StringPool& pool);

/// Process-wide default cache budget: PF_CACHE_MB megabytes (read
/// once); unset = 64 MB, "0" = caching off.
size_t CacheDefaultBudgetBytes();

/// Process-wide default admission floor: PF_CACHE_MIN_COST_US
/// microseconds (read once); unset = 100, "0" = admit everything.
int64_t CacheDefaultMinCostUs();

/// Process-wide default for repairing value-free subplan entries across
/// content-only document updates: PF_CACHE_REPAIR (read once); on
/// unless "0".
bool CacheRepairDefault();

}  // namespace pathfinder::engine

#endif  // PATHFINDER_ENGINE_CACHE_H_
