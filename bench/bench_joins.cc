// Join-graph pass benchmark & gate: the XMark value-join queries
// (Q8-Q12) plus two literal-filter join shapes, run with the join-graph
// pass (PF_JOINOPT) on and off.
//
// Hard gates (exit 1), in both full and --smoke mode:
//   * byte-identity: every query serializes identically with the pass
//     on and off, at 1 and 2 threads (the pass must be invisible in the
//     result bytes);
//   * counters fire: the existential distincts of Q8/Q9/Q12 are
//     removed by stats-backed key inference; the literal shapes push
//     >= 1 select below a join;
//   * the pass is off when asked: join_opt=0 keeps all counters at 0;
//   * the emitted BENCH_joins.json re-reads and parses.
//
// Timing gates (full mode only — smoke timings are microseconds of
// noise): with a warmed plan cache no query may regress past
// off/on < 0.80, and the geomean must stay >= 0.95. The win from the
// pass is modest (selection pushdown + distinct removal on plans the
// peephole already scrubbed); the gates pin "never slower", not a
// fictitious speedup.
//
// Usage:
//   --smoke   sf 0.002, identity/counters/JSON gates only

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/pathfinder.h"
#include "bench/bench_util.h"
#include "xmark/queries.h"
#include "xml/database.h"

namespace pathfinder::bench {
namespace {

struct JoinQuery {
  std::string name;
  std::string text;
  int min_kdr = 0;     // key_distincts_removed lower bound
  int min_pushed = 0;  // selects_pushed lower bound
};

std::vector<JoinQuery> Queries() {
  std::vector<JoinQuery> qs;
  // XMark value-join queries. kdr bounds are the measured reach of the
  // stats-backed key inference (Q10/Q11 distincts survive: their join
  // keys are not provably duplicate-free).
  for (int qn : {8, 9, 10, 11, 12}) {
    JoinQuery q;
    q.name = "Q" + std::to_string(qn);
    q.text = xmark::GetXMarkQuery(qn).text;
    q.min_kdr = (qn == 8 || qn == 12) ? 1 : qn == 9 ? 2 : 0;
    qs.push_back(std::move(q));
  }
  // Three-way value joins with a secondary literal comparison: the
  // post-join select the pushdown pass plants below the mapping join.
  qs.push_back(
      {"J1",
       "for $p in /site/people/person "
       "for $a in /site/closed_auctions/closed_auction "
       "for $i in /site/regions//item "
       "where $a/buyer/@person = $p/@id and $a/itemref/@item = $i/@id "
       "and $i/quantity > 1 return <r>{$p/name/text()}</r>",
       1, 1});
  qs.push_back(
      {"J2",
       "for $a in /site/closed_auctions/closed_auction "
       "for $p in /site/people/person "
       "for $i in /site/regions//item "
       "where $p/@id = $a/buyer/@person and $i/@id = $a/itemref/@item "
       "and $p/profile/@income > 80000 "
       "return <r>{$i/name/text()}</r>",
       1, 1});
  return qs;
}

struct QueryReport {
  std::string name;
  double on_ms = 0, off_ms = 0;
  int pushed = 0, kdr = 0;
};

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  double sf = smoke ? 0.002 : ScaleFactors().back();
  xml::Database* db = XMarkDb(sf);
  std::vector<JoinQuery> queries = Queries();

  std::printf("Join-graph pass (PF_JOINOPT) on XMark sf %g\n\n", sf);
  std::printf("%-5s %10s %10s %8s %7s %5s\n", "query", "on", "off",
              "off/on", "pushed", "kdr");

  int failures = 0;
  std::vector<QueryReport> reports;

  // Gate 1+2: byte-identity across on/off x 1/2 threads, counters fire.
  for (const JoinQuery& q : queries) {
    Pathfinder pf(db);
    QueryReport rep;
    rep.name = q.name;
    std::string baseline;
    for (int join_opt : {0, 1}) {
      for (int threads : {1, 2}) {
        QueryOptions o;
        o.context_doc = "auction.xml";
        o.join_opt = join_opt;
        o.num_threads = threads;
        o.plan_cache = 0;  // both variants must pass the optimizer
        auto r = pf.Run(q.text, o);
        if (!r.ok()) {
          std::fprintf(stderr, "FAIL %s join_opt=%d threads=%d: %s\n",
                       q.name.c_str(), join_opt, threads,
                       r.status().ToString().c_str());
          return 1;
        }
        auto s = r->Serialize();
        if (!s.ok()) {
          std::fprintf(stderr, "FAIL %s: serialize\n", q.name.c_str());
          return 1;
        }
        if (baseline.empty()) {
          baseline = *s;
        } else if (*s != baseline) {
          std::fprintf(stderr,
                       "FAIL %s: join_opt=%d threads=%d changed the "
                       "result bytes\n",
                       q.name.c_str(), join_opt, threads);
          ++failures;
        }
        if (join_opt == 0 &&
            (r->opt_stats.selects_pushed != 0 ||
             r->opt_stats.key_distincts_removed != 0)) {
          std::fprintf(stderr, "FAIL %s: counters nonzero with the pass off\n",
                       q.name.c_str());
          ++failures;
        }
        if (join_opt == 1 && threads == 1) {
          rep.pushed = r->opt_stats.selects_pushed;
          rep.kdr = r->opt_stats.key_distincts_removed;
        }
      }
    }
    if (rep.kdr < q.min_kdr || rep.pushed < q.min_pushed) {
      std::fprintf(stderr,
                   "FAIL %s: counters below floor (kdr %d/%d, pushed "
                   "%d/%d)\n",
                   q.name.c_str(), rep.kdr, q.min_kdr, rep.pushed,
                   q.min_pushed);
      ++failures;
    }
    reports.push_back(std::move(rep));
  }

  // Warm-plan timing: plan cache on, so the optimizer cost is paid once
  // and the comparison is execution of the rewritten vs original plan.
  int reps = smoke ? 1 : 5;
  for (size_t i = 0; i < queries.size(); ++i) {
    const JoinQuery& q = queries[i];
    QueryReport& rep = reports[i];
    for (int join_opt : {1, 0}) {
      Pathfinder pf(db);
      QueryOptions o;
      o.context_doc = "auction.xml";
      o.join_opt = join_opt;
      o.num_threads = 1;
      o.subplan_cache = 0;  // time the execution, not a cache replay
      auto warm = pf.Run(q.text, o);  // populate the plan cache
      if (!warm.ok()) {
        std::fprintf(stderr, "FAIL %s warmup\n", q.name.c_str());
        return 1;
      }
      double ms = BestOfMs(reps, [&] {
        auto r = pf.Run(q.text, o);
        if (!r.ok()) std::exit(1);
      });
      (join_opt ? rep.on_ms : rep.off_ms) = ms;
    }
    std::printf("%-5s %10s %10s %7.2fx %7d %5d\n", rep.name.c_str(),
                FmtMs(rep.on_ms).c_str(), FmtMs(rep.off_ms).c_str(),
                rep.on_ms > 0 ? rep.off_ms / rep.on_ms : 0.0, rep.pushed,
                rep.kdr);
    std::fflush(stdout);
  }

  // Gate 3 (full mode): never slower than the pass off, per query and
  // in geomean.
  if (!smoke) {
    double log_sum = 0;
    for (const QueryReport& rep : reports) {
      double ratio = rep.on_ms > 0 ? rep.off_ms / rep.on_ms : 1.0;
      log_sum += std::log(ratio);
      if (ratio < 0.80) {
        std::fprintf(stderr, "FAIL %s: pass-on is %.2fx of pass-off\n",
                     rep.name.c_str(), ratio);
        ++failures;
      }
    }
    double geomean = std::exp(log_sum / reports.size());
    std::printf("\ngeomean off/on: %.3fx\n", geomean);
    if (geomean < 0.95) {
      std::fprintf(stderr, "FAIL geomean %.3f < 0.95\n", geomean);
      ++failures;
    }
  }

  // Emit + re-read the JSON report.
  const char* path = "BENCH_joins.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\"sf\": %g, \"queries\": [", sf);
  for (size_t i = 0; i < reports.size(); ++i) {
    const QueryReport& r = reports[i];
    std::fprintf(f,
                 "%s\n  {\"query\": \"%s\", \"on_ms\": %.3f, \"off_ms\": "
                 "%.3f, \"ratio\": %.3f, \"pushed\": %d, \"kdr\": %d}",
                 i ? "," : "", r.name.c_str(), r.on_ms, r.off_ms,
                 r.on_ms > 0 ? r.off_ms / r.on_ms : 0.0, r.pushed, r.kdr);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);

  f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot re-read %s\n", path);
    return 1;
  }
  std::string contents;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, got);
  }
  std::fclose(f);
  if (!ValidJsonDocument(contents)) {
    std::fprintf(stderr, "%s: emitted JSON does not parse\n", path);
    return 1;
  }
  std::printf("%s parses as valid JSON (%zu bytes)\n", path,
              contents.size());

  if (failures > 0) {
    std::fprintf(stderr, "\n%d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace pathfinder::bench

int main(int argc, char** argv) {
  return pathfinder::bench::Main(argc, argv);
}
