// Thread-scaling sweep for the partitioned parallel kernels and the
// staircase join: each workload runs at 1/2/4/8 threads and reports
// wall-clock plus speedup over the single-thread (exact serial) path.
// Before any timing, every workload's output is checked byte-identical
// against the serial reference at EVERY swept thread count — a
// divergence aborts the bench.
//
// The partitioned kernels additionally report their internal phase
// breakdown (KernelPhases): radix partition / table build / probe for
// the hash join, run-sort / merge levels for the sort, morsel partials
// / partitioned combine for the grouped aggregation.
//
// Emits a machine-readable BENCH_parallel.json (one top-level object:
// "hardware_threads", "sf", "smoke", "kernels" rows with the phase
// breakdown, "pipeline" rows) plus the legacy BENCH_pipeline.json.
//
// Flags:
//   --smoke   tiny inputs (sf 0.002, scaled-down kernel rows), 1 rep,
//             then re-read and validate the emitted JSON. Identity
//             checks still run; the scaling gate does not.
//
// On machines with >= 8 hardware threads (and not in --smoke), the
// bench enforces the scaling gate: join-int and sort must reach >= 3x
// at 8 threads. On smaller machines the gate is reported as skipped —
// speedups near 1x there only measure the ordered-merge overhead.
//
// Workloads:
//   join-int     2M x 1M int-key radix hash join (partition+build+probe)
//   sort         1M-row two-key parallel merge sort permutation
//   groupagg     2M-row grouped double sum (partitioned combine)
//   scj-desc     staircase descendant scan, 1 root context (XMark)
//   scj-spread   staircase descendant scan, 4096 spread contexts
//   xmark-q8/q9  end-to-end XMark join queries through the API
//                (caches, CSE and profiling pinned off)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accel/step.h"
#include "api/pathfinder.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "bat/kernel.h"
#include "bench/bench_util.h"
#include "xmark/queries.h"

namespace pathfinder::bench {
namespace {

using bat::Column;
using bat::ColumnPtr;
using bat::IdxVec;
using bat::KernelPhases;
using bat::Table;
using xml::Pre;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Row {
  std::string workload;
  int threads;
  double ms;
  double speedup;
  KernelPhases phases;  // all-zero for workloads without a breakdown
};

std::vector<Row> g_rows;

struct PipeRow {
  int query;
  int threads;
  double ms_materialized;
  double ms_pipelined;
  double speedup;
};

std::vector<PipeRow> g_pipe_rows;

int g_reps = 3;

/// Time `fn` at every thread count. `fn` receives the pool and a
/// KernelPhases sink (ignored by workloads without a phase breakdown;
/// the last rep's phases are reported). `check`, when given, is run
/// once per thread count BEFORE timing and must return true iff the
/// output matches the serial reference — so byte-identity is verified
/// at every swept thread count, not a single representative one.
void Sweep(const std::string& name,
           const std::function<void(ThreadPool*, KernelPhases*)>& fn,
           const std::function<bool(ThreadPool*)>& check = nullptr) {
  double base_ms = 0;
  std::printf("%-12s", name.c_str());
  for (int t : kThreadCounts) {
    std::unique_ptr<ThreadPool> owned;
    ThreadPool* tp = nullptr;
    if (t > 1) {
      owned = std::make_unique<ThreadPool>(t);
      tp = owned.get();
    }
    if (check && !check(tp)) {
      std::fprintf(stderr, "\n%s: result diverges from serial at t=%d\n",
                   name.c_str(), t);
      std::exit(1);
    }
    KernelPhases ph;
    double ms = BestOfMs(g_reps, [&] {
      ph = KernelPhases{};
      fn(tp, &ph);
    });
    if (t == 1) base_ms = ms;
    double speedup = ms > 0 ? base_ms / ms : 1.0;
    g_rows.push_back({name, t, ms, speedup, ph});
    std::printf(" %10s %5.2fx", FmtMs(ms).c_str(), speedup);
  }
  std::printf("\n");
  std::fflush(stdout);
}

ColumnPtr RandInts(size_t n, int64_t hi, uint64_t seed) {
  auto c = Column::MakeInt(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) c->ints().push_back(rng.Range(0, hi));
  return c;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  double sf = smoke ? 0.002 : ScaleFactors().back();
  g_reps = smoke ? 1 : 3;
  // Kernel input sizes: full scale exercises out-of-cache behavior;
  // smoke stays past every parallel threshold but finishes in ms.
  const size_t kJoinL = smoke ? 100'000 : 2'000'000;
  const size_t kJoinR = smoke ? 50'000 : 1'000'000;
  const size_t kRowsToSort = smoke ? 100'000 : 1'000'000;
  const size_t kAggN = smoke ? 100'000 : 2'000'000;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("Thread scaling (partitioned parallel kernels + staircase "
              "join)\n");
  std::printf("hardware threads available: %u%s\n\n", hw,
              smoke ? "  [smoke]" : "");
  std::printf("%-12s", "workload");
  for (int t : kThreadCounts) std::printf("    t=%-2d    speedup", t);
  std::printf("\n");

  // --- kernel: radix hash join -------------------------------------------
  {
    ColumnPtr l = RandInts(kJoinL, static_cast<int64_t>(kJoinL / 10), 1);
    ColumnPtr r = RandInts(kJoinR, static_cast<int64_t>(kJoinL / 10), 2);
    StringPool pool;
    IdxVec sl, sr;
    if (!bat::HashJoinIndices(*l, *r, pool, &sl, &sr, nullptr).ok()) {
      return 1;
    }
    Sweep(
        "join-int",
        [&](ThreadPool* tp, KernelPhases* ph) {
          IdxVec li, ri;
          (void)bat::HashJoinIndices(*l, *r, pool, &li, &ri, tp,
                                     bat::KernelTuning::Default(), ph);
          ColumnPtr g = bat::Gather(*l, li, tp);
        },
        [&](ThreadPool* tp) {
          IdxVec cl, cr;
          return bat::HashJoinIndices(*l, *r, pool, &cl, &cr, tp).ok() &&
                 cl == sl && cr == sr;
        });
  }

  // --- kernel: parallel merge sort ---------------------------------------
  {
    Table t;
    const std::vector<bat::ColId> keys = bat::InternCols({"a", "b"});
    t.AddCol(keys[0], RandInts(kRowsToSort, 500, 3));
    t.AddCol(keys[1],
             RandInts(kRowsToSort, static_cast<int64_t>(kRowsToSort), 4));
    StringPool pool;
    auto serial = bat::SortPerm(t, keys, pool, {}, nullptr);
    if (!serial.ok()) return 1;
    Sweep(
        "sort",
        [&](ThreadPool* tp, KernelPhases* ph) {
          (void)bat::SortPerm(t, keys, pool, {}, tp,
                              bat::KernelTuning::Default(), ph);
        },
        [&](ThreadPool* tp) {
          auto par = bat::SortPerm(t, keys, pool, {}, tp);
          return par.ok() && *par == *serial;
        });
  }

  // --- kernel: grouped aggregation ---------------------------------------
  {
    Table t;
    const bat::ColId g = bat::InternCol("g"), v = bat::InternCol("v"),
                     sum = bat::InternCol("s");
    t.AddCol(g, RandInts(kAggN, 999, 5));
    auto vals = Column::MakeItem(kAggN);
    Rng rng(6);
    for (size_t i = 0; i < kAggN; ++i) {
      vals->items().push_back(Item::Dbl(rng.NextDouble()));
    }
    t.AddCol(v, vals);
    StringPool pool;
    auto serial =
        bat::GroupAgg(t, g, v, bat::AggKind::kSum, pool, g, sum, nullptr);
    if (!serial.ok()) return 1;
    Sweep(
        "groupagg",
        [&](ThreadPool* tp, KernelPhases* ph) {
          (void)bat::GroupAgg(t, g, v, bat::AggKind::kSum, pool, g, sum, tp,
                              bat::KernelTuning::Default(), ph);
        },
        [&](ThreadPool* tp) {
          auto par =
              bat::GroupAgg(t, g, v, bat::AggKind::kSum, pool, g, sum, tp);
          return par.ok() &&
                 par->col(0)->ints() == serial->col(0)->ints() &&
                 par->col(1)->items() == serial->col(1)->items();
        });
  }

  // --- staircase join ----------------------------------------------------
  {
    xml::Database* db = XMarkDb(sf);
    const xml::Document& doc = db->doc(0);
    auto scj_case = [&](const std::vector<Pre>& contexts,
                        const char* name) {
      std::vector<Pre> serial_out;
      accel::StaircaseJoin(doc, contexts, accel::Axis::kDescendant,
                           accel::NodeTest::Element(), &serial_out, nullptr,
                           nullptr);
      Sweep(
          name,
          [&](ThreadPool* tp, KernelPhases*) {
            std::vector<Pre> out;
            accel::StaircaseJoin(doc, contexts, accel::Axis::kDescendant,
                                 accel::NodeTest::Element(), &out, nullptr,
                                 tp);
          },
          [&](ThreadPool* tp) {
            std::vector<Pre> out;
            accel::StaircaseJoin(doc, contexts, accel::Axis::kDescendant,
                                 accel::NodeTest::Element(), &out, nullptr,
                                 tp);
            return out == serial_out;
          });
    };
    scj_case({1}, "scj-desc");
    std::vector<Pre> spread;
    Pre step = std::max<Pre>(1, doc.num_nodes() / 4096);
    for (Pre v = 1; v < doc.num_nodes() && spread.size() < 4096;
         v += step) {
      Pre u = v;
      while (u < doc.num_nodes() && doc.IsAttr(u)) ++u;
      if (u < doc.num_nodes() && (spread.empty() || spread.back() < u)) {
        spread.push_back(u);
      }
    }
    scj_case(spread, "scj-spread");

    // --- end-to-end XMark join queries -----------------------------------
    // Caches, CSE and profiling pinned off explicitly (the bench_cache
    // convention): repeat runs must re-execute the kernels, and an
    // ambient PF_CSE/PF_PROFILE/PF_CACHE_MB cannot change what this
    // bench measures.
    Pathfinder pf(db);
    auto xmark_opts = [](int threads) {
      QueryOptions opts;
      opts.context_doc = "auction.xml";
      opts.plan_cache = 0;
      opts.subplan_cache = 0;
      opts.cache_budget_bytes = 0;
      opts.cse = 0;
      opts.profile = 0;
      opts.num_threads = threads;
      return opts;
    };
    for (int qn : {8, 9}) {
      const auto& q = xmark::GetXMarkQuery(qn);
      auto run_at = [&](int threads) -> Result<std::string> {
        auto r = pf.Run(q.text, xmark_opts(threads));
        if (!r.ok()) return r.status();
        return r->Serialize();
      };
      auto serial = run_at(1);
      if (!serial.ok()) {
        std::fprintf(stderr, "Q%d: %s\n", qn,
                     serial.status().ToString().c_str());
        return 1;
      }
      char name[32];
      std::snprintf(name, sizeof(name), "xmark-q%d", qn);
      Sweep(
          name,
          [&](ThreadPool* tp, KernelPhases*) {
            int threads = tp == nullptr ? 1 : tp->num_threads();
            auto r = pf.Run(q.text, xmark_opts(threads));
            if (!r.ok()) {
              std::fprintf(stderr, "Q%d: %s\n", qn,
                           r.status().ToString().c_str());
              std::exit(1);
            }
          },
          [&](ThreadPool* tp) {
            auto s = run_at(tp == nullptr ? 1 : tp->num_threads());
            return s.ok() && *s == *serial;
          });
    }
  }

  // --- pipelined vs. materialized execution ------------------------------
  // Every XMark query, fused-fragment execution against one BAT per
  // operator, at 1/2/4 threads. Results are checked byte-identical
  // before timing. Same pinning as above: caches, CSE, profiling off.
  {
    xml::Database* db = XMarkDb(sf);
    Pathfinder pf(db);
    auto run = [&](const char* text, int pipeline, int threads) {
      QueryOptions opts;
      opts.context_doc = "auction.xml";
      opts.plan_cache = 0;
      opts.subplan_cache = 0;
      opts.cache_budget_bytes = 0;
      opts.cse = 0;
      opts.profile = 0;
      opts.pipeline = pipeline;
      opts.num_threads = threads;
      return pf.Run(text, opts);
    };
    constexpr int kPipeThreads[] = {1, 2, 4};
    std::printf("\nPipelined vs. materialized execution (XMark)\n");
    std::printf("%-10s", "query");
    for (int t : kPipeThreads) {
      std::printf("  t=%d mat      pipe   speedup", t);
    }
    std::printf("\n");
    for (const auto& q : xmark::XMarkQueries()) {
      auto base = run(q.text, /*pipeline=*/0, /*threads=*/1);
      auto base_s = base.ok() ? base->Serialize()
                              : Result<std::string>(base.status());
      if (!base_s.ok()) {
        std::fprintf(stderr, "Q%d: %s\n", q.number,
                     base_s.status().ToString().c_str());
        return 1;
      }
      for (int t : kPipeThreads) {
        auto p = run(q.text, /*pipeline=*/1, t);
        auto ps = p.ok() ? p->Serialize() : Result<std::string>(p.status());
        if (!ps.ok() || *ps != *base_s) {
          std::fprintf(stderr, "Q%d: pipelined result diverges at t=%d\n",
                       q.number, t);
          return 1;
        }
      }
      std::printf("xmark-q%-3d", q.number);
      for (int t : kPipeThreads) {
        double mat = BestOfMs(g_reps, [&] { (void)run(q.text, 0, t); });
        double pipe = BestOfMs(g_reps, [&] { (void)run(q.text, 1, t); });
        double sp = pipe > 0 ? mat / pipe : 1.0;
        g_pipe_rows.push_back({q.number, t, mat, pipe, sp});
        std::printf(" %9s %9s %6.2fx", FmtMs(mat).c_str(),
                    FmtMs(pipe).c_str(), sp);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }

  // --- phase breakdown report --------------------------------------------
  std::printf("\nKernel phase breakdown (last rep per thread count)\n");
  std::printf("%-12s %3s %10s %10s %10s %10s\n", "workload", "t",
              "partition", "build", "probe", "merge");
  for (const Row& r : g_rows) {
    const KernelPhases& p = r.phases;
    if (p.partition_ns + p.build_ns + p.probe_ns + p.merge_ns == 0) {
      continue;
    }
    std::printf("%-12s %3d %10s %10s %10s %10s\n", r.workload.c_str(),
                r.threads, FmtMs(Ms(p.partition_ns)).c_str(),
                FmtMs(Ms(p.build_ns)).c_str(),
                FmtMs(Ms(p.probe_ns)).c_str(),
                FmtMs(Ms(p.merge_ns)).c_str());
  }

  // --- JSON report -------------------------------------------------------
  std::FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"hardware_threads\": %u,\n  \"sf\": %g,\n"
                 "  \"smoke\": %s,\n  \"kernels\": [\n",
                 hw, sf, smoke ? "true" : "false");
    for (size_t i = 0; i < g_rows.size(); ++i) {
      const Row& r = g_rows[i];
      std::fprintf(
          f,
          "    {\"workload\": \"%s\", \"threads\": %d, \"ms\": %.3f, "
          "\"speedup\": %.3f, \"partition_ms\": %.3f, \"build_ms\": %.3f, "
          "\"probe_ms\": %.3f, \"merge_ms\": %.3f}%s\n",
          r.workload.c_str(), r.threads, r.ms, r.speedup,
          Ms(r.phases.partition_ns), Ms(r.phases.build_ns),
          Ms(r.phases.probe_ns), Ms(r.phases.merge_ns),
          i + 1 < g_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"pipeline\": [\n");
    for (size_t i = 0; i < g_pipe_rows.size(); ++i) {
      const PipeRow& r = g_pipe_rows[i];
      std::fprintf(f,
                   "    {\"query\": %d, \"threads\": %d, "
                   "\"ms_materialized\": %.3f, \"ms_pipelined\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   r.query, r.threads, r.ms_materialized, r.ms_pipelined,
                   r.speedup, i + 1 < g_pipe_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_parallel.json (%zu kernel rows)\n",
                g_rows.size());
  }
  f = std::fopen("BENCH_pipeline.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < g_pipe_rows.size(); ++i) {
      const PipeRow& r = g_pipe_rows[i];
      std::fprintf(f,
                   "  {\"query\": %d, \"threads\": %d, "
                   "\"ms_materialized\": %.3f, \"ms_pipelined\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   r.query, r.threads, r.ms_materialized, r.ms_pipelined,
                   r.speedup, i + 1 < g_pipe_rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote BENCH_pipeline.json (%zu rows)\n",
                g_pipe_rows.size());
  }

  // Smoke gate: the emitted JSON must re-read as well-formed.
  {
    std::FILE* rf = std::fopen("BENCH_parallel.json", "r");
    if (rf == nullptr) {
      std::fprintf(stderr, "BENCH_parallel.json: missing after write\n");
      return 1;
    }
    std::string body;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), rf)) > 0) {
      body.append(buf, got);
    }
    std::fclose(rf);
    if (!ValidJsonDocument(body)) {
      std::fprintf(stderr, "BENCH_parallel.json: invalid JSON\n");
      return 1;
    }
  }

  // Scaling gate: only meaningful where 8 worker threads can actually
  // run concurrently, and only at full scale (smoke inputs are too
  // small to amortize partitioning).
  if (!smoke && hw >= 8) {
    bool ok = true;
    for (const char* w : {"join-int", "sort"}) {
      for (const Row& r : g_rows) {
        if (r.workload == w && r.threads == 8 && r.speedup < 3.0) {
          std::fprintf(stderr, "scaling gate: %s t=8 speedup %.2fx < 3x\n",
                       w, r.speedup);
          ok = false;
        }
      }
    }
    if (!ok) return 1;
    std::printf("scaling gate: join-int and sort >= 3x at t=8 — ok\n");
  } else {
    std::printf("scaling gate: skipped (%s)\n",
                smoke ? "smoke mode" : "fewer than 8 hardware threads");
  }

  std::printf(
      "\nSpeedups are relative to t=1, which runs the same partitioned "
      "code paths serially. On a single-core machine all rows stay near "
      "1x — the partition decomposition adds only ordered-merge "
      "overhead.\n");
  return 0;
}

}  // namespace
}  // namespace pathfinder::bench

int main(int argc, char** argv) {
  return pathfinder::bench::Main(argc, argv);
}
