#ifndef PATHFINDER_API_PATHFINDER_H_
#define PATHFINDER_API_PATHFINDER_H_

#include <memory>
#include <string>
#include <vector>

#include "accel/step.h"
#include "algebra/op.h"
#include "base/result.h"
#include "compiler/compile.h"
#include "engine/cache.h"
#include "engine/query_context.h"
#include "frontend/ast.h"
#include "opt/optimize.h"
#include "xml/database.h"

namespace pathfinder {

/// Per-query knobs (defaults reproduce the paper's configuration).
struct QueryOptions {
  /// Document a leading "/" refers to (fn:doc(...) otherwise).
  std::string context_doc;
  /// Compiler join recognition (ablation E7).
  bool join_recognition = true;
  /// Peephole plan optimization (E5).
  bool optimize = true;
  /// Staircase join vs naive region selection for steps (ablation E6).
  bool use_staircase = true;
  /// Worker threads for morsel-parallel operator evaluation. 0 = the
  /// process default (PF_THREADS env var, else hardware concurrency);
  /// 1 = the exact serial code paths. Results are identical at every
  /// setting.
  int num_threads = 0;
  /// Per-operator execution profiling: wall time, row/byte counts and
  /// morsel counts for every plan operator. -1 = the process default
  /// (PF_PROFILE env var; OFF unless set to a value other than "0"),
  /// 0 = off, 1 = on. When off, the executor performs no timer calls.
  int profile = -1;
  /// CSE/DAG-ification after the peephole passes (merges structurally
  /// identical subtrees into shared nodes). Only meaningful with
  /// `optimize`. -1 = the process default (PF_CSE env var; on unless
  /// "0"), 0 = off, 1 = on. Results are identical either way.
  int cse = -1;
  /// Path-summary consumption: collapse purely structural step chains
  /// into summary-answered kPathScan operators (with `optimize`), and
  /// prune staircase-join scans to the matching tag partitions. -1 =
  /// the process default (PF_PATHSUM env var; on unless "0"), 0 = off,
  /// 1 = on. Results are byte-identical either way.
  int path_summary = -1;
  /// Cross-query plan cache: repeated query texts (or texts normalizing
  /// to the same Core) skip parse/normalize/compile/optimize and reuse
  /// the annotated plan. -1 = on whenever the cache budget is nonzero
  /// (PF_CACHE_MB, default 64 MB; "0" disables), 0 = off, 1 = on
  /// (still requires a nonzero budget). Results are identical.
  int plan_cache = -1;
  /// Cross-query subplan-result cache: materialized results of pure
  /// document-derived subtrees (axis steps etc.) are reused across
  /// queries against the unchanged database. Same -1/0/1 convention and
  /// budget gate as `plan_cache`. Results are identical.
  int subplan_cache = -1;
  /// Incremental cache repair across content-only document updates
  /// (xml::ApplyUpdate leaf replace-value): plan entries survive, and
  /// value-free subplan entries are repaired in place instead of
  /// evicted (see engine::QueryCache::BeginQuery). -1 = the process
  /// default (PF_CACHE_REPAIR env var; on unless "0"), 0 = treat every
  /// update as structural (evict), 1 = on. Results are identical
  /// either way.
  int cache_repair = -1;
  /// Override the shared cache byte budget for this Pathfinder before
  /// running (-1 = leave as is; 0 = drop everything and disable).
  /// Evicts immediately if lowered.
  int64_t cache_budget_bytes = -1;
  /// Override the subplan-cache admission floor (microseconds of
  /// measured evaluation time a candidate must cost to be admitted).
  /// -1 = leave as is (process default: PF_CACHE_MIN_COST_US, unset =
  /// 100); 0 = admit every candidate.
  int64_t cache_min_cost_us = -1;
  /// Partitioned-kernel tuning. All three are RESULT-NEUTRAL speed
  /// knobs: partition counts and morsel grains only shift work between
  /// chunks whose merges are order-exact, so result bytes never depend
  /// on them. -1 = the process default (bat::KernelTuning's member
  /// defaults).
  /// log2 of the radix-join / group-agg partition count, clamped to
  /// [1, 12].
  int radix_bits = -1;
  /// Morsel grain (rows) for filters and joins, clamped to
  /// [64, 2^20].
  int64_t morsel_rows = -1;
  /// The row sort's grain (run-detection morsel, chunk-sort length,
  /// merge segment), clamped to [256, 2^22].
  int64_t sort_chunk_rows = -1;
  /// Wall-time budget for this query in milliseconds (-1 = none),
  /// armed when Run() starts, so parsing, compilation and optimization
  /// count against it. Run() checks the deadline after translation,
  /// compilation and optimization, and the executor polls it at its
  /// cooperative checkpoints (operator boundaries, Step and path-scan
  /// loops); once it expires the query aborts with StatusCode::kTimeout
  /// / ErrorClass::kTimeout.
  int64_t timeout_ms = -1;
  /// Budget in bytes for materialized operator outputs and constructed
  /// nodes (-1 = none). Every operator's output is charged. Exceeding
  /// it aborts with StatusCode::kResourceExhausted.
  int64_t mem_limit_bytes = -1;
  /// Externally owned cancellation token (nullptr = none), checked
  /// from the start of Run() like timeout_ms. Fire token->Cancel() from
  /// any thread to abort the running query with StatusCode::kCancelled;
  /// a timeout_ms deadline is armed on this token when both are set.
  /// Must outlive the Run() call.
  engine::CancelToken* cancel_token = nullptr;
  /// Test seam: called at every executor operator checkpoint with the
  /// operator and the query's cancel token (see engine::OpProbe).
  /// Empty = no calls on the hot path.
  engine::OpProbe op_probe;
};

/// A completed query: the result sequence plus every intermediate stage
/// for inspection (the demo's "under the hood" hooks, paper Sec. 4).
struct QueryResult {
  std::vector<Item> items;

  frontend::ExprPtr core;        // normalized XQuery Core
  algebra::OpPtr plan;           // compiled plan (before optimization)
  algebra::OpPtr plan_opt;       // executed plan
  compiler::CompileStats compile_stats;
  opt::OptimizeStats opt_stats;
  accel::StaircaseStats scj_stats;

  /// Per-operator execution profile (QueryOptions::profile / PF_PROFILE);
  /// null when profiling was off.
  engine::OperatorProfilePtr profile;

  /// Plan served from the cross-query plan cache (frontend + compiler +
  /// optimizer were skipped entirely).
  bool plan_cache_hit = false;
  /// Subplan-result cache traffic of this query alone.
  int64_t subplan_cache_hits = 0;
  int64_t subplan_cache_misses = 0;
  /// Candidate results this query offered the cache: admitted vs
  /// refused by the cost-based admission floor.
  int64_t subplan_cache_admitted = 0;
  int64_t subplan_cache_rejects = 0;
  /// Snapshot of the shared cache's cumulative counters, taken after
  /// this query (zero-valued when caching was off).
  engine::CacheStats cache_stats;

  /// Owns fragments constructed during evaluation; `items` referencing
  /// constructed nodes stay valid while this lives.
  std::unique_ptr<engine::QueryContext> ctx;

  /// Serialize the result sequence to XML/text.
  Result<std::string> Serialize() const;

  /// The executed plan with each operator's profile rendered inline,
  /// headed by optimizer and cache counter summary lines ("" when
  /// profiling was off).
  std::string ProfileText() const;

  /// The profile as one JSON object: {"opt_stats": {...}, "cache":
  /// {...}, "plan": <operator tree>} ("" when profiling was off).
  std::string ProfileJson() const;
};

/// Facade over the full stack: parse -> normalize -> loop-lift ->
/// optimize -> execute on the column store -> serialize.
class Pathfinder {
 public:
  explicit Pathfinder(xml::Database* db)
      : db_(db),
        cache_(std::make_shared<engine::QueryCache>(
            engine::CacheDefaultBudgetBytes())) {}

  /// Parse and normalize only (the demo's Core output).
  Result<frontend::ExprPtr> Translate(const std::string& query,
                                      const QueryOptions& opts = {}) const;

  /// Compile a normalized core expression to an (unoptimized) plan.
  Result<algebra::OpPtr> CompilePlan(const frontend::ExprPtr& core,
                                     const QueryOptions& opts = {},
                                     compiler::CompileStats* stats =
                                         nullptr) const;

  /// End-to-end evaluation.
  Result<QueryResult> Run(const std::string& query,
                          const QueryOptions& opts = {}) const;

  xml::Database* db() const { return db_; }

  /// The cross-query cache shared by every query this instance runs
  /// (inspect its Stats() in tests/benches; internally synchronized).
  engine::QueryCache* cache() const { return cache_.get(); }

 private:
  xml::Database* db_;
  std::shared_ptr<engine::QueryCache> cache_;
};

}  // namespace pathfinder

#endif  // PATHFINDER_API_PATHFINDER_H_
