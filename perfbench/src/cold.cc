// cold-small / cold-large: first-sight XMark queries.
//
// One client runs Q1..Q20 in closed loop: an untimed warm-up pass, then
// whole passes in a seeded shuffled order until the run time is spent.
// Every request builds a fresh Pathfinder over the shared database, so
// no plan or subplan result can be reused: each one pays what a query
// seen for the first time pays at default options.
//
// The traced run pairs every untraced request (Pathfinder::Run) with a
// traced one that replaces Run by the public calls Run makes, each
// wrapped in a span, and ends with passes that turn on the executor's
// per-operator profile for the engine.op.* breakdown.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "algebra/hash.h"
#include "api/pathfinder.h"
#include "base/rng.h"
#include "engine/executor.h"
#include "frontend/canonical.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"
#include "runtime/serialize.h"
#include "workloads.h"
#include "xmark/queries.h"

namespace pfbench {

namespace pf = pathfinder;

namespace {

constexpr char kDoc[] = "auction.xml";

/// Layer spans of one traced request, in the order Pathfinder::Run
/// reaches them. "request" is the root; its self time is the benchmark's own glue.
constexpr const char* kLayers[] = {
    "frontend.parse",  "frontend.normalize", "compiler.compile",
    "opt.optimize",    "opt.pipeline",       "engine.cache",
    "engine.execute",  "runtime.serialize",
};

/// Counters summed over the requests of one pass.
struct Counts {
  double plan_ops = 0, rounds = 0, ops_after = 0, cse_merges = 0,
         distincts_removed = 0, key_distincts_removed = 0,
         selects_pushed = 0, joins_reordered = 0, structural_rewrites = 0,
         fused_ops = 0, contexts_in = 0, nodes_scanned = 0, results = 0,
         partitions_pruned = 0, structural_answers = 0, plan_hits = 0,
         plan_lookups = 0, subplan_hits = 0, subplan_lookups = 0,
         cache_bytes = 0;
};

/// Profile-derived figures of one request.
struct OpProfileSums {
  std::map<std::string, double> kind_ms;
  double out_bytes = 0;
};

void FoldProfile(const pf::engine::OperatorProfile& p, OpProfileSums* s) {
  if (!p.shared_ref) {
    s->kind_ms[pf::algebra::OpKindName(p.kind)] +=
        static_cast<double>(p.wall_ns) / 1e6;
    s->out_bytes += static_cast<double>(p.out_bytes);
  }
  for (const auto& c : p.children) FoldProfile(c, s);
}

/// The plan-cache key prefix Pathfinder::Run builds for default options
/// (the fresh cache never matches it; the string work is part of the
/// probe's cost).
std::string KeyPrefix(bool cse, bool pipeline, bool join_opt, bool pathsum) {
  std::string f = "jo";
  f += cse ? 'c' : '-';
  f += pipeline ? 'p' : '-';
  f += join_opt ? 'g' : '-';
  f += pathsum ? 's' : '-';
  f += "|" + std::to_string(sizeof(kDoc) - 1) + ":" + kDoc + "|";
  return f;
}

/// Opens a span on construction and closes it on Close() or scope exit;
/// a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, int64_t req, int parent)
      : t_(t), id_(t != nullptr ? t->Begin(name, req, parent) : -1) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void Close() {
    if (t_ != nullptr && id_ >= 0) t_->End(id_);
    t_ = nullptr;
  }
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

/// Pathfinder::Run at default options, spelled out as the public calls
/// it makes, with one span per layer. With `profile` the executor's
/// per-operator profile is on and folded into `prof`.
pf::Status TracedRun(pf::xml::Database* db, const std::string& text,
                     Tracer* tr, int64_t req, bool profile, std::string* out,
                     Counts* c, OpProfileSums* prof) {
  namespace eng = pf::engine;
  SpanScope root(tr, "request", req, -1);
  const int r = root.id();
  pf::QueryOptions qo;
  qo.context_doc = kDoc;
  const bool pipeline = eng::PipelineDefault();
  const bool cse = pf::opt::CseDefault();
  const bool join_opt = pf::opt::JoinOptDefault();
  const bool pathsum = pf::opt::PathSumDefault();

  std::unique_ptr<pf::Pathfinder> pfr;
  eng::QueryCache* cache = nullptr;
  bool caching = false;
  uint64_t generation = 0;
  std::string raw_key, core_key;
  eng::PlanEntryPtr entry;
  {
    SpanScope s(tr, "engine.cache", req, r);
    pfr = std::make_unique<pf::Pathfinder>(db);
    cache = pfr->cache();
    caching = cache->budget() > 0;
    if (caching) {
      pf::xml::Database::DocVersions v = db->Versions();
      cache->BeginQuery(v.generation, v.docs, eng::CacheRepairDefault());
      generation = v.generation;
      raw_key = "r:" + KeyPrefix(cse, pipeline, join_opt, pathsum) + text;
      entry = cache->LookupPlan(raw_key);
      c->plan_lookups += 1;
    }
  }
  pf::frontend::ExprPtr core;
  if (!entry) {
    pf::Result<pf::frontend::Module> mod = [&] {
      SpanScope s(tr, "frontend.parse", req, r);
      return pf::frontend::ParseQuery(text);
    }();
    PF_RETURN_NOT_OK(mod.status());
    {
      SpanScope s(tr, "frontend.normalize", req, r);
      pf::frontend::NormalizeOptions no;
      no.context_doc = qo.context_doc;
      PF_ASSIGN_OR_RETURN(core, pf::frontend::Normalize(mod.value(), no));
    }
    if (caching) {
      SpanScope s(tr, "engine.cache", req, r);
      core_key = "c:" + KeyPrefix(cse, pipeline, join_opt, pathsum) +
                 pf::frontend::CanonicalCoreText(core);
      entry = cache->LookupPlan(core_key);
      if (entry) cache->AliasPlan(raw_key, entry);
    }
  }
  pf::algebra::OpPtr plan_opt;
  if (entry) {
    c->plan_hits += 1;
    plan_opt = entry->plan_opt;
  } else {
    pf::algebra::OpPtr plan;
    pf::compiler::CompileStats cstats;
    pf::opt::OptimizeStats ostats;
    pf::opt::PipelineStats pstats;
    {
      SpanScope s(tr, "compiler.compile", req, r);
      PF_ASSIGN_OR_RETURN(plan, pfr->CompilePlan(core, qo, &cstats));
    }
    {
      SpanScope s(tr, "opt.optimize", req, r);
      pf::opt::OptimizeOptions oo;
      oo.cse = cse;
      oo.join_opt = join_opt;
      oo.path_summary = pathsum;
      oo.db = db;
      PF_ASSIGN_OR_RETURN(plan_opt, pf::opt::Optimize(plan, &ostats, oo));
    }
    if (pipeline) {
      SpanScope s(tr, "opt.pipeline", req, r);
      PF_RETURN_NOT_OK(pf::opt::AnnotatePipelines(plan_opt, &pstats));
    }
    if (caching) {
      SpanScope s(tr, "engine.cache", req, r);
      eng::AnnotateCacheCandidates(plan_opt, *db->pool());
      eng::PlanCacheEntry pe;
      pe.core = core;
      pe.plan = plan;
      pe.plan_opt = plan_opt;
      pe.compile_stats = cstats;
      pe.opt_stats = ostats;
      pe.pipeline_stats = pstats;
      pe.bytes = pf::algebra::ApproxPlanBytes(plan) +
                 pf::algebra::ApproxPlanBytes(plan_opt) + core_key.size();
      pe.doc_deps = plan_opt->cache_docs;
      pe.doc_deps_unknown = plan_opt->cache_docs_unknown;
      entry = cache->InsertPlan(raw_key, core_key, std::move(pe));
      plan_opt = entry->plan_opt;
    }
    c->plan_ops += static_cast<double>(ostats.ops_before);
    c->rounds += ostats.rounds;
    c->ops_after += static_cast<double>(ostats.ops_after);
    c->cse_merges += ostats.cse_merges;
    c->distincts_removed += ostats.distincts_removed;
    c->key_distincts_removed += ostats.key_distincts_removed;
    c->selects_pushed += ostats.selects_pushed;
    c->joins_reordered += ostats.joins_reordered;
    c->structural_rewrites += ostats.structural_answers;
    c->fused_ops += pstats.fused_ops;
  }

  auto ctx = std::make_unique<eng::QueryContext>(db);
  pf::bat::Table table;
  {
    SpanScope s(tr, "engine.execute", req, r);
    ctx->use_staircase = true;
    ctx->path_summary = pathsum;
    ctx->pipeline = pipeline;
    ctx->profile = profile;
    ctx->SetNumThreads(0);
    ctx->tuning = ctx->tuning.Clamped();
    if (caching) {
      ctx->result_cache = cache;
      ctx->cache_generation = generation;
    }
    PF_ASSIGN_OR_RETURN(table, eng::Execute(plan_opt, ctx.get()));
  }
  {
    SpanScope s(tr, "runtime.serialize", req, r);
    PF_ASSIGN_OR_RETURN(std::vector<pf::Item> items,
                        pf::runtime::TableToSequence(table));
    PF_ASSIGN_OR_RETURN(*out, pf::runtime::SerializeSequence(*ctx, items));
  }
  root.Close();

  const pf::accel::StaircaseStats& scj = ctx->scj_stats;
  c->contexts_in += static_cast<double>(scj.contexts_in);
  c->nodes_scanned += static_cast<double>(scj.nodes_scanned);
  c->results += static_cast<double>(scj.results);
  c->partitions_pruned += static_cast<double>(scj.path_partitions_pruned);
  c->structural_answers += static_cast<double>(scj.structural_answers);
  c->subplan_hits += static_cast<double>(ctx->subplan_cache_hits);
  c->subplan_lookups += static_cast<double>(ctx->subplan_cache_hits +
                                            ctx->subplan_cache_misses);
  if (caching) {
    eng::CacheStats cs = cache->Stats();
    c->cache_bytes += static_cast<double>(cs.plan.bytes + cs.subplan.bytes);
  }
  if (prof != nullptr && ctx->profile_result != nullptr) {
    FoldProfile(*ctx->profile_result, prof);
  }
  return pf::Status::OK();
}

/// The untraced request: a fresh Pathfinder, Run, Serialize. `done`
/// is stamped once the XML is out, before the result is destroyed (the
/// traced request's root span ends at the same point).
pf::Status PlainRun(pf::xml::Database* db, const std::string& text,
                    std::string* out, Clock::time_point* done) {
  pf::Pathfinder pfr(db);
  pf::QueryOptions qo;
  qo.context_doc = kDoc;
  PF_ASSIGN_OR_RETURN(pf::QueryResult r, pfr.Run(text, qo));
  PF_ASSIGN_OR_RETURN(*out, r.Serialize());
  *done = Clock::now();
  return pf::Status::OK();
}

}  // namespace

bool RunCold(const Options& o, double sf, Tracer* tracer, RunResult* out) {
  const auto& queries = pf::xmark::XMarkQueries();
  const size_t nq = queries.size();
  const uint64_t doc_seed = Mix(o.seed ^ 0xC01Dull);

  // Corpus and reference answers, before anything is timed.
  Clock::time_point g0 = Clock::now();
  pf::Result<std::string> xml = XMarkXml(sf, doc_seed);
  if (!xml.ok()) {
    std::fprintf(stderr, "generate: %s\n", xml.status().ToString().c_str());
    return false;
  }
  const double xml_bytes = static_cast<double>(xml->size());
  Clock::time_point g1 = Clock::now();
  pf::Result<std::vector<std::string>> expected =
      ReferenceAnswers(kDoc, xml.value());
  Clock::time_point g2 = Clock::now();
  if (!expected.ok()) {
    std::fprintf(stderr, "reference: %s\n",
                 expected.status().ToString().c_str());
    return false;
  }

  // Setup: LoadXml of the pre-generated text into a fresh database. This
  // first load builds the database the queries run on; more, into
  // databases dropped right after, precede timed passes, so setup_s is
  // the median of loads spread over the whole run, not of one window.
  std::vector<double> load_s;
  auto load = [&]() -> std::unique_ptr<pf::xml::Database> {
    auto fresh = std::make_unique<pf::xml::Database>();
    Clock::time_point t0 = Clock::now();
    pf::Result<pf::xml::FragId> id = fresh->LoadXml(kDoc, xml.value());
    load_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    if (!id.ok()) {
      std::fprintf(stderr, "load: %s\n", id.status().ToString().c_str());
      return nullptr;
    }
    return fresh;
  };
  std::unique_ptr<pf::xml::Database> db = load();
  if (db == nullptr) return false;
  size_t summary_bytes = 0;
  const double storage = static_cast<double>(StorageBytes(*db, &summary_bytes));
  const pf::xml::Document& doc = db->doc(0);
  std::printf("corpus: sf %g, doc seed %llu, %.0f XML bytes, %u nodes; "
              "generate %.2f s, reference %.2f s\n",
              sf, static_cast<unsigned long long>(doc_seed), xml_bytes,
              doc.num_nodes(), MsBetween(g0, g1) / 1e3,
              MsBetween(g1, g2) / 1e3);

  int64_t wrong = 0;
  auto check = [&](const pf::Status& st, const std::string& got, size_t q,
                   const char* what) {
    ++out->attempted;
    if (st.ok() && got == (*expected)[q]) return true;
    ++out->failed;
    if (st.ok()) ++wrong;
    if (out->failed <= 5) {
      std::fprintf(stderr, "%s Q%d: %s\n", what, queries[q].number,
                   st.ok() ? "answer differs from the baseline's"
                           : st.ToString().c_str());
    }
    return false;
  };

  // Warm-up pass (untimed): code paths, allocator, thread pool.
  for (size_t q = 0; q < nq; ++q) {
    std::string got;
    Clock::time_point done;
    check(PlainRun(db.get(), queries[q].text, &got, &done), got, q,
          "warm-up");
  }
  if (out->failed > 0) {
    out->correct = false;
    return true;
  }
  out->attempted = 0;
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "warning: cannot reset the RSS high-water mark\n");
  }

  std::vector<size_t> order(nq);
  std::iota(order.begin(), order.end(), 0);
  pf::Rng rng(Mix(o.seed ^ 0x0DE5ull));
  auto shuffle = [&] {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
  };

  // Per-query samples. Counts are deterministic per query, so `pass`
  // sums each query's first traced request only.
  std::vector<std::vector<double>> plain_ms(nq), traced_ms(nq);
  std::vector<std::map<std::string, std::vector<double>>> layer_ms(nq);
  std::vector<std::map<std::string, std::vector<double>>> kind_ms(nq);
  std::vector<double> out_bytes(nq, 0);
  std::vector<bool> counted(nq, false);
  Counts pass, repeat;
  int64_t plain_ok = 0;
  int64_t request = 0;

  const double budget_ms = o.seconds * 1e3;
  // Traced runs: every query runs untraced and traced in each pass over
  // the first 80% of the time, profile passes take the rest.
  const double layered_ms = o.trace ? 0.8 * budget_ms : budget_ms;
  Clock::time_point t0 = Clock::now();
  int passes = 0;
  // A load precedes a pass while the loads so far took at most a tenth of
  // the time spent, so they stay spread over the run without crowding out
  // the queries. They are left out of the timed phase: of its elapsed
  // time and, by reading the high-water mark before each load and
  // resetting it after, of peak_rss_mb.
  constexpr double kLoadShare = 0.1;
  double load_pause_ms = 0;
  double peak_rss = 0;
  auto load_between_passes = [&] {
    Clock::time_point l0 = Clock::now();
    peak_rss = std::max(peak_rss, PeakRssMb());
    const bool ok = load() != nullptr;
    ResetPeakRss();
    load_pause_ms += MsBetween(l0, Clock::now());
    return ok;
  };
  auto plain = [&](size_t q) {
    std::string got;
    Clock::time_point start = Clock::now(), done;
    pf::Status st = PlainRun(db.get(), queries[q].text, &got, &done);
    if (check(st, got, q, "run")) {
      plain_ms[q].push_back(MsBetween(start, done));
      ++plain_ok;
    }
  };
  auto traced = [&](size_t q) {
    std::string got;
    size_t first = tracer->size();
    pf::Status st =
        TracedRun(db.get(), queries[q].text, tracer, ++request,
                  /*profile=*/false, &got, counted[q] ? &repeat : &pass,
                  nullptr);
    if (!check(st, got, q, "traced")) return;
    counted[q] = true;
    for (const auto& [name, ms] : tracer->SelfMs(first)) {
      layer_ms[q][name].push_back(ms);
    }
    traced_ms[q].push_back(
        MsBetween((*tracer)[first].start, (*tracer)[first].end));
  };
  for (; passes < 2 || MsBetween(t0, Clock::now()) < layered_ms; ++passes) {
    if (load_pause_ms <= kLoadShare * MsBetween(t0, Clock::now()) &&
        !load_between_passes()) {
      return false;
    }
    shuffle();
    for (size_t q : order) {
      if (!o.trace) {
        plain(q);
      } else if (rng.Chance(0.5)) {
        // Each query runs untraced and traced back to back, in a random
        // order, so both see the same machine conditions.
        plain(q);
        traced(q);
      } else {
        traced(q);
        plain(q);
      }
    }
  }
  const double elapsed_s = (MsBetween(t0, Clock::now()) - load_pause_ms) / 1e3;
  peak_rss = std::max(peak_rss, PeakRssMb());

  int profile_passes = 0;
  if (o.trace) {
    Clock::time_point p0 = Clock::now();
    const double profile_ms = budget_ms - layered_ms;
    for (; profile_passes < 1 || MsBetween(p0, Clock::now()) < profile_ms;
         ++profile_passes) {
      for (size_t q = 0; q < nq; ++q) {
        std::string got;
        OpProfileSums prof;
        pf::Status st = TracedRun(db.get(), queries[q].text, nullptr,
                                  ++request, /*profile=*/true, &got,
                                  &repeat, &prof);
        if (!check(st, got, q, "profiled")) continue;
        for (const auto& [kind, ms] : prof.kind_ms) {
          kind_ms[q][kind].push_back(ms);
        }
        out_bytes[q] = prof.out_bytes;
      }
    }
  }
  out->correct = wrong == 0 && out->failed == 0;

  std::vector<Metric>& m = out->metrics;
  if (!o.trace) {
    std::printf("%-4s %6s %12s %12s\n", "q", "n", "median_ms", "p90_ms");
    std::vector<double> medians;
    for (size_t q = 0; q < nq; ++q) {
      medians.push_back(Median(plain_ms[q]));
      std::printf("Q%-3d %6zu %12.4f %12.4f\n", queries[q].number,
                  plain_ms[q].size(), medians.back(),
                  Percentile(plain_ms[q], 0.9));
    }
    std::printf("passes %d, %.2f s timed, %zu loads (median %.4f s)\n",
                passes, elapsed_s, load_s.size(), Median(load_s));
    m.push_back({"setup_s", Median(load_s), "s"});
    m.push_back({"qps", static_cast<double>(plain_ok) / elapsed_s, "req/s"});
    m.push_back({"geomean_ms", GeoMean(medians), "ms"});
    m.push_back({"peak_rss_mb", peak_rss, "MiB"});
    m.push_back({"storage_ratio", storage / xml_bytes, "ratio"});
    return true;
  }

  // Per-layer: each time is the sum over Q1..Q20 of that query's
  // median, i.e. ms per pass; counts are per pass.
  double plain_total = 0, traced_total = 0;
  for (size_t q = 0; q < nq; ++q) {
    plain_total += Median(plain_ms[q]);
    traced_total += Median(traced_ms[q]);
  }
  auto layer_total = [&](const std::string& name) {
    double s = 0;
    for (size_t q = 0; q < nq; ++q) {
      auto it = layer_ms[q].find(name);
      if (it != layer_ms[q].end()) s += Median(it->second);
    }
    return s;
  };
  double covered = 0;
  std::printf("layer shares of the traced pass (%d passes, %d profiled):\n",
              passes, profile_passes);
  for (const char* layer : kLayers) {
    double ms = layer_total(layer);
    covered += ms;
    std::printf("  %-20s %10.4f ms  %5.1f%%\n", layer, ms,
                traced_total > 0 ? 100 * ms / traced_total : 0);
  }
  std::printf("  %-20s %10.4f ms\n", "(glue)", layer_total("request"));
  const Counts& t = pass;
  std::map<std::string, double> kinds;
  double materialized = 0;
  for (size_t q = 0; q < nq; ++q) {
    for (const auto& [kind, v] : kind_ms[q]) kinds[kind] += Median(v);
    materialized += out_bytes[q];
  }
  std::vector<std::pair<double, std::string>> heavy;
  for (const auto& [kind, ms] : kinds) heavy.emplace_back(ms, kind);
  std::sort(heavy.rbegin(), heavy.rend());
  std::printf("operator kinds by self time (ms per pass):");
  for (const auto& [ms, kind] : heavy) std::printf(" %s=%.3f", kind.c_str(), ms);
  std::printf("\n");

  auto rate = [](double hits, double lookups) {
    return lookups > 0 ? hits / lookups : 0.0;
  };
  m.push_back({"frontend.parse_ms", layer_total("frontend.parse"), "ms"});
  m.push_back({"frontend.normalize_ms", layer_total("frontend.normalize"), "ms"});
  m.push_back({"compiler.compile_ms", layer_total("compiler.compile"), "ms"});
  m.push_back({"compiler.plan_ops", t.plan_ops, "count"});
  m.push_back({"opt.optimize_ms", layer_total("opt.optimize"), "ms"});
  m.push_back({"opt.rounds", t.rounds, "count"});
  m.push_back({"opt.ops_after", t.ops_after, "count"});
  m.push_back({"opt.cse_merges", t.cse_merges, "count"});
  m.push_back({"opt.distincts_removed", t.distincts_removed, "count"});
  m.push_back({"opt.key_distincts_removed", t.key_distincts_removed, "count"});
  m.push_back({"opt.selects_pushed", t.selects_pushed, "count"});
  m.push_back({"opt.joins_reordered", t.joins_reordered, "count"});
  m.push_back({"opt.structural_answers", t.structural_rewrites, "count"});
  m.push_back({"opt.pipeline_ms", layer_total("opt.pipeline"), "ms"});
  m.push_back({"opt.fused_ops", t.fused_ops, "count"});
  m.push_back({"engine.cache_ms", layer_total("engine.cache"), "ms"});
  m.push_back({"engine.execute_ms", layer_total("engine.execute"), "ms"});
  for (const auto& [kind, ms] : kinds) {
    m.push_back({"engine.op." + kind + "_ms", ms, "ms"});
  }
  m.push_back({"engine.materialized_mb", materialized / (1 << 20), "MiB"});
  m.push_back({"accel.contexts_in", t.contexts_in, "count"});
  m.push_back({"accel.nodes_scanned", t.nodes_scanned, "count"});
  m.push_back({"accel.results", t.results, "count"});
  m.push_back({"accel.partitions_pruned", t.partitions_pruned, "count"});
  m.push_back({"accel.structural_answers", t.structural_answers, "count"});
  m.push_back({"runtime.serialize_ms", layer_total("runtime.serialize"), "ms"});
  m.push_back({"xml.load_ms", Median(load_s) * 1e3, "ms"});
  m.push_back({"xml.store_mb", (storage - static_cast<double>(summary_bytes)) /
                                   (1 << 20), "MiB"});
  m.push_back({"xml.pathsum_mb", static_cast<double>(summary_bytes) / (1 << 20),
               "MiB"});
  m.push_back({"engine.cache.plan_hit_rate", rate(t.plan_hits, t.plan_lookups),
               "fraction"});
  m.push_back({"engine.cache.subplan_hit_rate",
               rate(t.subplan_hits, t.subplan_lookups), "fraction"});
  m.push_back({"engine.cache.mb", t.cache_bytes / (1 << 20), "MiB"});
  m.push_back({"trace.coverage", plain_total > 0 ? covered / plain_total : 0,
               "ratio"});
  m.push_back({"trace.overhead",
               plain_total > 0 ? traced_total / plain_total : 0, "ratio"});
  return true;
}

}  // namespace pfbench
