#ifndef PATHFINDER_ENGINE_QUERY_CONTEXT_H_
#define PATHFINDER_ENGINE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "accel/step.h"
#include "algebra/op.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "bat/kernel.h"
#include "engine/profile.h"
#include "xml/database.h"

namespace pathfinder::engine {

class QueryCache;

/// Cooperative cancellation + wall-time deadline, shared between a
/// query's owner (a server session, a watchdog, a test) and the
/// executor's checkpoints. The owner fires `Cancel()`/`Timeout()` from
/// any thread; the executor polls `Check()` at operator boundaries and
/// inside the Step and path-scan loops and aborts the query with the
/// corresponding Status. Fires at most once — the first reason wins, so
/// a cancel racing an expiring deadline yields exactly one of the two
/// errors.
///
/// The live fast path is one relaxed atomic load (plus a steady_clock
/// read per checkpoint when a deadline is armed).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { Fire(kCancelled); }
  void Timeout() { Fire(kTimeout); }

  /// Arm (or move) the wall-time deadline; Check() fires Timeout once
  /// steady_clock passes it.
  void SetDeadline(std::chrono::steady_clock::time_point t) {
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     t.time_since_epoch())
                     .count();
    deadline_ns_.store(ns == 0 ? 1 : ns, std::memory_order_relaxed);
  }

  bool fired() const { return state_.load(std::memory_order_relaxed) != 0; }

  /// OK while live; Cancelled/Timeout after the token fired (also
  /// fires the deadline if it expired).
  Status Check() {
    uint8_t s = state_.load(std::memory_order_relaxed);
    if (s == 0) {
      int64_t d = deadline_ns_.load(std::memory_order_relaxed);
      if (d == 0) return Status::OK();
      int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
      if (now < d) return Status::OK();
      Fire(kTimeout);
      s = state_.load(std::memory_order_relaxed);
    }
    return s == kCancelled
               ? Status::Cancelled("query cancelled")
               : Status::Timeout("query wall-time budget exceeded");
  }

 private:
  static constexpr uint8_t kCancelled = 1;
  static constexpr uint8_t kTimeout = 2;

  void Fire(uint8_t reason) {
    uint8_t expected = 0;
    state_.compare_exchange_strong(expected, reason,
                                   std::memory_order_relaxed);
  }

  std::atomic<uint8_t> state_{0};
  std::atomic<int64_t> deadline_ns_{0};  // steady_clock ns; 0 = unarmed
};

/// Test/observability seam: called at every executor operator
/// checkpoint with the operator about to be evaluated and the query's
/// cancel token (nullptr when none). Fault-injection tests use it to
/// fire cancellation or timeouts at a deterministic plan position.
using OpProbe =
    std::function<void(const algebra::Op& op, CancelToken* token)>;

/// Per-query runtime state: resolves fragment ids (persistent documents
/// and fragments constructed by ε/τ during this query) and collects
/// execution statistics.
///
/// Node items carry (FragId, pre). Constructed fragments number from
/// kFirstConstructed in creation order; stored documents stay below
/// 2^20 (xml::Database's directory bound). So a constructed id sorts
/// after every stored document, and resolving one never reads the live
/// document count, which registrations racing the query move. The
/// engine's constructors build one forest fragment per operator
/// evaluation (engine::ForestBuilder), its trees in iter order.
class QueryContext {
 public:
  static constexpr xml::FragId kFirstConstructed = xml::FragId{1} << 31;

  explicit QueryContext(xml::Database* db) : db_(db) {}
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  xml::Database* db() { return db_; }
  StringPool* pool() { return db_->pool(); }
  const StringPool& pool() const {
    return static_cast<const xml::Database&>(*db_).pool();
  }

  const xml::Document& doc(xml::FragId id) const {
    if (id >= kFirstConstructed) return *constructed_[id - kFirstConstructed];
    return db_->doc(id);
  }

  xml::FragId AddFragment(xml::Document d) {
    xml::FragId id = ReserveFragment();
    FillFragment(id, std::move(d));
    return id;
  }

  /// The next constructed fragment id, held for a fragment still being
  /// built: items can name it before FillFragment stores the document.
  xml::FragId ReserveFragment() {
    constructed_.emplace_back();
    return kFirstConstructed +
           static_cast<xml::FragId>(constructed_.size() - 1);
  }
  void FillFragment(xml::FragId id, xml::Document d) {
    constructed_[id - kFirstConstructed] =
        std::make_unique<xml::Document>(std::move(d));
  }

  size_t num_constructed() const { return constructed_.size(); }

  /// Worker pool for morsel-parallel operator evaluation; nullptr means
  /// the serial code paths. Defaults to the process-wide pool (sized by
  /// PF_THREADS, falling back to the hardware concurrency).
  ThreadPool* thread_pool() const { return thread_pool_; }

  /// Override the parallelism degree for this query. n <= 0 restores
  /// the process default, n == 1 forces the serial paths, n > 1 uses a
  /// dedicated pool owned by this context.
  void SetNumThreads(int n) {
    if (n <= 0) {
      owned_pool_.reset();
      thread_pool_ = ThreadPool::Default();
    } else if (n == 1) {
      owned_pool_.reset();
      thread_pool_ = nullptr;
    } else {
      owned_pool_ = std::make_unique<ThreadPool>(n);
      thread_pool_ = owned_pool_.get();
    }
  }

  /// Kernel tuning (morsel grain, sort grain) used for every kernel
  /// call. Every setting is result-neutral — it shifts work between
  /// chunks whose merges are order-exact — so overriding it per query
  /// can never change result bytes. Defaults to the process default;
  /// stored pre-clamped.
  bat::KernelTuning tuning;

  /// Ablation switch (bench E6): evaluate Step operators with per-node
  /// naive region selection instead of the staircase join.
  bool use_staircase = true;

  /// Consume the documents' path summaries at execution time: staircase
  /// joins prune their scans to the matching tag partitions, and
  /// kPathScan operators are answered directly from the summary. Off by
  /// default; api::Pathfinder sets it from QueryOptions/PF_PATHSUM.
  /// Result bytes are identical either way.
  bool path_summary = false;

  /// Compile-only stub: perfbench/src/cold.cc is its only user, and
  /// ROADMAP item 4, step 1 (TracedRun calls Run) deletes it. Nothing
  /// reads it.
  bool pipeline = false;

  /// Collect a per-operator execution profile (wall time, row counts,
  /// morsel counts, output bytes). Off by default; when off the
  /// executor's hot path performs no timer calls at all.
  bool profile = false;

  /// The profile tree, filled by the executor when `profile` is on.
  OperatorProfilePtr profile_result;

  /// Aggregated staircase join counters for this query.
  accel::StaircaseStats scj_stats;

  /// Cooperative cancellation/deadline for this query, or nullptr. The
  /// executor checks it at operator boundaries and inside the Step and
  /// path-scan loops; when it fires, Execute returns the token's
  /// Cancelled/Timeout status. Owned externally (typically by a server
  /// session).
  CancelToken* cancel_token = nullptr;

  /// Token used when the API owner asked for a deadline but supplied no
  /// token of its own (see api::QueryOptions::timeout_ms).
  CancelToken owned_cancel_token;

  /// Memory budget for materialized operator outputs and constructed
  /// nodes (bytes; 0 = off). The executor charges each materialized
  /// table's byte size, and each constructed tree's encoding bytes as
  /// the tree is appended, and aborts with ResourceExhausted once the
  /// sum exceeds the budget. The charge is cumulative: the executor
  /// releases each table after its last consumer but credits nothing
  /// back.
  int64_t mem_limit_bytes = 0;

  /// Executor checkpoint probe (tests); empty = no calls.
  OpProbe op_probe;

  /// Cross-query subplan-result cache (see engine/cache.h), or nullptr
  /// when subplan caching is off for this query. The executor consults
  /// it at annotated cache candidates (Op::cache_cand) and publishes
  /// freshly materialized candidate results back.
  QueryCache* result_cache = nullptr;
  /// Database generation this query's BeginQuery synced at; stamped on
  /// every InsertSubplan so the cache can drop publishes from queries
  /// that started before a racing document registration.
  uint64_t cache_generation = 0;

  /// Per-query subplan cache traffic (the cache's own counters are
  /// cumulative across queries).
  int64_t subplan_cache_hits = 0;
  int64_t subplan_cache_misses = 0;
  /// Candidate results this query offered the cache, split by the
  /// admission verdict (rejects = refused by the cost floor).
  int64_t subplan_cache_admitted = 0;
  int64_t subplan_cache_rejects = 0;

 private:
  xml::Database* db_;
  std::vector<std::unique_ptr<xml::Document>> constructed_;
  ThreadPool* thread_pool_ = ThreadPool::Default();
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace pathfinder::engine

#endif  // PATHFINDER_ENGINE_QUERY_CONTEXT_H_
