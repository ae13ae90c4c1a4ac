#include "api/pathfinder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "algebra/hash.h"
#include "algebra/print.h"
#include "engine/executor.h"
#include "frontend/canonical.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"
#include "runtime/serialize.h"

namespace pathfinder {

namespace {

std::string FmtProfileNs(int64_t ns) {
  char buf[32];
  if (ns >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", static_cast<double>(ns) / 1e3);
  }
  return buf;
}

void IndexProfile(
    const engine::OperatorProfile& p,
    std::unordered_map<int, const engine::OperatorProfile*>* by_id) {
  by_id->emplace(p.op_id, &p);
  for (const auto& c : p.children) IndexProfile(c, by_id);
}

/// Plan-cache key fingerprint: exactly the options that change the
/// built plan (context document, join recognition, optimizer, CSE,
/// join-graph pass, path summaries). Execution-only knobs —
/// threads, staircase, profiling, the cache switches themselves —
/// produce identical plans and share entries.
std::string KeyFingerprint(const QueryOptions& o, bool cse, bool join_opt,
                           bool path_summary) {
  std::string f;
  f += o.join_recognition ? 'j' : '-';
  f += o.optimize ? 'o' : '-';
  f += cse ? 'c' : '-';
  f += join_opt ? 'g' : '-';
  f += path_summary ? 's' : '-';
  f += '|';
  f += std::to_string(o.context_doc.size());
  f += ':';
  f += o.context_doc;
  f += '|';
  return f;
}

void SectionToJson(const char* name, const engine::CacheSectionStats& s,
                   std::string* out) {
  *out += '"';
  *out += name;
  *out += "\": {\"hits\": ";
  *out += std::to_string(s.hits);
  *out += ", \"misses\": ";
  *out += std::to_string(s.misses);
  *out += ", \"evictions\": ";
  *out += std::to_string(s.evictions);
  *out += ", \"entries\": ";
  *out += std::to_string(s.entries);
  *out += ", \"bytes\": ";
  *out += std::to_string(s.bytes);
  *out += "}";
}

}  // namespace

Result<std::string> QueryResult::Serialize() const {
  return runtime::SerializeSequence(*ctx, items);
}

std::string QueryResult::ProfileText() const {
  if (profile == nullptr || plan_opt == nullptr || ctx == nullptr) return "";
  std::unordered_map<int, const engine::OperatorProfile*> by_id;
  IndexProfile(*profile, &by_id);
  std::ostringstream head;
  head << "# opt: " << opt_stats.ops_before << "->" << opt_stats.ops_after
       << " ops, " << opt_stats.cse_merges << " cse merges, "
       << opt_stats.rounds << " rounds\n";
  head << "# joinopt: " << opt_stats.selects_pushed << " selects pushed, "
       << opt_stats.key_distincts_removed << " key distincts removed\n";
  head << "# pathsum: " << opt_stats.structural_answers
       << " chains collapsed, " << scj_stats.structural_answers
       << " structural answers, " << scj_stats.path_partitions_pruned
       << " partitions pruned\n";
  head << "# cache: plan " << (plan_cache_hit ? "hit" : "miss")
       << ", subplan " << subplan_cache_hits << " hits / "
       << subplan_cache_misses << " misses; resident "
       << cache_stats.plan.entries << " plans ("
       << cache_stats.plan.bytes << " B), " << cache_stats.subplan.entries
       << " subplans (" << cache_stats.subplan.bytes << " B), "
       << (cache_stats.plan.evictions + cache_stats.subplan.evictions)
       << " evictions, budget " << cache_stats.budget_bytes << " B\n";
  head << "# cache: " << subplan_cache_admitted << " admitted / "
       << subplan_cache_rejects << " rejected (floor "
       << cache_stats.min_cost_us << " us), "
       << cache_stats.per_doc_invalidations
       << " per-doc invalidations over " << cache_stats.invalidations
       << " store changes\n";
  return head.str() +
         algebra::PlanToTextAnnotated(
             plan_opt, *ctx->pool(), [&](const algebra::Op& op) -> std::string {
               auto it = by_id.find(op.id);
               if (it == by_id.end()) return "";
               const engine::OperatorProfile& p = *it->second;
               std::ostringstream os;
               os << "[";
               if (p.cached) os << "cached, ";
               os << FmtProfileNs(p.wall_ns) << ", " << p.in_rows << "->"
                  << p.out_rows << " rows, " << p.morsels << " morsels, "
                  << p.out_bytes << " B]";
               return os.str();
             });
}

std::string QueryResult::ProfileJson() const {
  if (profile == nullptr) return "";
  std::string out = "{\"opt_stats\": {\"ops_before\": ";
  out += std::to_string(opt_stats.ops_before);
  out += ", \"ops_after\": ";
  out += std::to_string(opt_stats.ops_after);
  out += ", \"projections_fused\": ";
  out += std::to_string(opt_stats.projections_fused);
  out += ", \"dead_columns_pruned\": ";
  out += std::to_string(opt_stats.dead_columns_pruned);
  out += ", \"distincts_removed\": ";
  out += std::to_string(opt_stats.distincts_removed);
  out += ", \"unions_simplified\": ";
  out += std::to_string(opt_stats.unions_simplified);
  out += ", \"cse_merges\": ";
  out += std::to_string(opt_stats.cse_merges);
  out += ", \"rounds\": ";
  out += std::to_string(opt_stats.rounds);
  out += ", \"selects_pushed\": ";
  out += std::to_string(opt_stats.selects_pushed);
  out += ", \"key_distincts_removed\": ";
  out += std::to_string(opt_stats.key_distincts_removed);
  out += ", \"structural_answers\": ";
  out += std::to_string(opt_stats.structural_answers);
  out += "}, \"pathsum\": {\"chains_collapsed\": ";
  out += std::to_string(opt_stats.structural_answers);
  out += ", \"structural_answers\": ";
  out += std::to_string(scj_stats.structural_answers);
  out += ", \"path_partitions_pruned\": ";
  out += std::to_string(scj_stats.path_partitions_pruned);
  out += "}, \"cache\": {\"plan_hit\": ";
  out += plan_cache_hit ? "true" : "false";
  out += ", \"subplan_hits\": ";
  out += std::to_string(subplan_cache_hits);
  out += ", \"subplan_misses\": ";
  out += std::to_string(subplan_cache_misses);
  out += ", \"subplan_admitted\": ";
  out += std::to_string(subplan_cache_admitted);
  out += ", \"subplan_rejects\": ";
  out += std::to_string(subplan_cache_rejects);
  out += ", ";
  SectionToJson("plan", cache_stats.plan, &out);
  out += ", ";
  SectionToJson("subplan", cache_stats.subplan, &out);
  out += ", \"invalidations\": ";
  out += std::to_string(cache_stats.invalidations);
  out += ", \"per_doc_invalidations\": ";
  out += std::to_string(cache_stats.per_doc_invalidations);
  out += ", \"admission_rejects\": ";
  out += std::to_string(cache_stats.admission_rejects);
  out += ", \"budget_bytes\": ";
  out += std::to_string(cache_stats.budget_bytes);
  out += ", \"min_cost_us\": ";
  out += std::to_string(cache_stats.min_cost_us);
  out += ", \"subplan_entries\": [";
  // Resident subplan section, MRU-first, capped to keep the JSON small.
  for (size_t i = 0; i < cache_stats.subplan_entries.size() && i < 32; ++i) {
    const engine::SubplanEntryCost& e = cache_stats.subplan_entries[i];
    if (i > 0) out += ", ";
    out += "{\"hash\": ";
    out += std::to_string(e.hash);
    out += ", \"bytes\": ";
    out += std::to_string(e.bytes);
    out += ", \"cost_us\": ";
    out += std::to_string(e.cost_us);
    out += "}";
  }
  out += "]}, \"plan\": ";
  out += engine::ProfileToJson(*profile);
  out += "}";
  return out;
}

Result<frontend::ExprPtr> Pathfinder::Translate(
    const std::string& query, const QueryOptions& opts) const {
  PF_ASSIGN_OR_RETURN(frontend::Module mod, frontend::ParseQuery(query));
  frontend::NormalizeOptions nopts;
  nopts.context_doc = opts.context_doc;
  return frontend::Normalize(mod, nopts);
}

Result<algebra::OpPtr> Pathfinder::CompilePlan(
    const frontend::ExprPtr& core, const QueryOptions& opts,
    compiler::CompileStats* stats) const {
  compiler::CompileOptions copts;
  copts.join_recognition = opts.join_recognition;
  return compiler::Compile(core, db_, copts, stats);
}

Result<QueryResult> Pathfinder::Run(const std::string& query,
                                    const QueryOptions& opts) const {
  QueryResult res;
  bool cse =
      opts.optimize && (opts.cse < 0 ? opt::CseDefault() : opts.cse != 0);
  bool join_opt =
      opts.optimize &&
      (opts.join_opt < 0 ? opt::JoinOptDefault() : opts.join_opt != 0);
  // Unlike cse/join_opt this is not gated on `optimize`: the staircase
  // partition pruning applies to unoptimized plans too; only the
  // kPathScan rewrite needs the optimizer.
  bool path_summary =
      opts.path_summary < 0 ? opt::PathSumDefault() : opts.path_summary != 0;
  engine::QueryCache* cache = cache_.get();
  if (opts.cache_budget_bytes >= 0) {
    cache->SetBudget(static_cast<size_t>(opts.cache_budget_bytes));
  }
  // Both cache sections are gated on a nonzero byte budget; within
  // that, each can be forced on/off per query.
  bool budget_on = cache->budget() > 0;
  bool plan_cache =
      budget_on && (opts.plan_cache < 0 || opts.plan_cache != 0);
  bool subplan_cache =
      budget_on && (opts.subplan_cache < 0 || opts.subplan_cache != 0);
  if (opts.cache_min_cost_us >= 0) {
    cache->SetMinCostUs(opts.cache_min_cost_us);
  }
  uint64_t cache_generation = 0;
  if (plan_cache || subplan_cache) {
    // Per-document invalidation: drops exactly the entries depending
    // on a document name whose version changed since the cache last
    // saw the store; entries over untouched documents stay, and with
    // cache_repair on, content-only updates evict nothing — plan
    // entries survive and value-free subplan entries are repaired.
    bool repair = opts.cache_repair < 0 ? engine::CacheRepairDefault()
                                        : opts.cache_repair != 0;
    xml::Database::DocVersions v = db_->Versions();
    cache->BeginQuery(v.generation, v.docs, repair);
    cache_generation = v.generation;
  }

  std::string raw_key, core_key;
  engine::PlanEntryPtr entry;
  if (plan_cache) {
    raw_key = "r:" + KeyFingerprint(opts, cse, join_opt, path_summary) + query;
    entry = cache->LookupPlan(raw_key);
  }
  if (!entry) {
    PF_ASSIGN_OR_RETURN(res.core, Translate(query, opts));
    if (plan_cache) {
      // Tier 2: a differently spelled query with the same Core shares
      // the entry; remember the raw spelling for next time.
      core_key = "c:" + KeyFingerprint(opts, cse, join_opt, path_summary) +
                 frontend::CanonicalCoreText(res.core);
      entry = cache->LookupPlan(core_key);
      if (entry) cache->AliasPlan(raw_key, entry);
    }
  }
  if (entry) {
    // Cached plans are shared and may be executing concurrently; they
    // are used exactly as published, never re-annotated.
    res.plan_cache_hit = true;
    res.core = entry->core;
    res.plan = entry->plan;
    res.plan_opt = entry->plan_opt;
    res.compile_stats = entry->compile_stats;
    res.opt_stats = entry->opt_stats;
  } else {
    PF_ASSIGN_OR_RETURN(res.plan,
                        CompilePlan(res.core, opts, &res.compile_stats));
    if (opts.optimize) {
      opt::OptimizeOptions oopts;
      oopts.cse = cse;
      oopts.join_opt = join_opt;
      oopts.path_summary = path_summary;
      oopts.db = db_;
      PF_ASSIGN_OR_RETURN(res.plan_opt,
                          opt::Optimize(res.plan, &res.opt_stats, oopts));
    } else {
      res.plan_opt = res.plan;
    }
    if (plan_cache || subplan_cache) {
      engine::AnnotateCacheCandidates(res.plan_opt, *db_->pool());
    }
    if (plan_cache) {
      engine::PlanCacheEntry pe;
      pe.core = res.core;
      pe.plan = res.plan;
      pe.plan_opt = res.plan_opt;
      pe.compile_stats = res.compile_stats;
      pe.opt_stats = res.opt_stats;
      pe.bytes = algebra::ApproxPlanBytes(res.plan) +
                 algebra::ApproxPlanBytes(res.plan_opt) + core_key.size();
      // The plan's document dependencies (root annotation): the entry
      // survives registrations of unrelated documents.
      pe.doc_deps = res.plan_opt->cache_docs;
      pe.doc_deps_unknown = res.plan_opt->cache_docs_unknown;
      entry = cache->InsertPlan(raw_key, core_key, std::move(pe));
      // Insert-if-absent: on a concurrent race the resident entry wins
      // so every executor shares one (immutably annotated) DAG.
      res.core = entry->core;
      res.plan = entry->plan;
      res.plan_opt = entry->plan_opt;
    }
  }

  res.ctx = std::make_unique<engine::QueryContext>(db_);
  res.ctx->use_staircase = opts.use_staircase;
  res.ctx->path_summary = path_summary;
  res.ctx->profile =
      opts.profile < 0 ? engine::ProfileDefault() : opts.profile != 0;
  res.ctx->SetNumThreads(opts.num_threads);
  {
    // Kernel tuning: -1 keeps the process default per field;
    // overrides are clamped once here so every kernel sees consistent
    // values. All three are result-neutral (and execution-only: they
    // are deliberately NOT part of the plan-cache key).
    bat::KernelTuning kt = res.ctx->tuning;
    if (opts.radix_bits >= 0) kt.radix_bits = opts.radix_bits;
    if (opts.morsel_rows >= 0) {
      kt.morsel_rows = static_cast<uint32_t>(
          std::min<int64_t>(opts.morsel_rows, int64_t{1} << 30));
    }
    if (opts.sort_chunk_rows >= 0) {
      kt.sort_chunk_rows = static_cast<uint32_t>(
          std::min<int64_t>(opts.sort_chunk_rows, int64_t{1} << 30));
    }
    res.ctx->tuning = kt.Clamped();
  }
  if (subplan_cache) {
    res.ctx->result_cache = cache;
    res.ctx->cache_generation = cache_generation;
  }
  {
    // Cancellation/limit plumbing: a caller-supplied token is used as
    // is; a timeout without one arms the context-owned token. Both are
    // polled at the executor's cooperative checkpoints.
    engine::CancelToken* token = opts.cancel_token;
    if (opts.timeout_ms >= 0) {
      if (token == nullptr) token = &res.ctx->owned_cancel_token;
      token->SetDeadline(std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(opts.timeout_ms));
    }
    res.ctx->cancel_token = token;
    if (opts.mem_limit_bytes >= 0) {
      res.ctx->mem_limit_bytes = opts.mem_limit_bytes;
    }
    res.ctx->op_probe = opts.op_probe;
  }
  PF_ASSIGN_OR_RETURN(bat::Table t,
                      engine::Execute(res.plan_opt, res.ctx.get()));
  PF_ASSIGN_OR_RETURN(res.items, runtime::TableToSequence(t));
  res.scj_stats = res.ctx->scj_stats;
  res.subplan_cache_hits = res.ctx->subplan_cache_hits;
  res.subplan_cache_misses = res.ctx->subplan_cache_misses;
  res.subplan_cache_admitted = res.ctx->subplan_cache_admitted;
  res.subplan_cache_rejects = res.ctx->subplan_cache_rejects;
  if (plan_cache || subplan_cache) res.cache_stats = cache->Stats();
  res.profile = std::move(res.ctx->profile_result);
  return res;
}

}  // namespace pathfinder
