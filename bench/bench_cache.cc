// Cross-query cache under churn: every XMark query runs cold against a
// fresh cache, then warm with an unrelated small document
// (re-)registered before every warm repeat. With per-document
// invalidation the auction entries stay warm across those
// registrations, so the warm runs must beat the cold ones: the gate is
// a >= 2x total speedup (whole-cache clearing would flatten it to ~1x).
// The first warm run's serialization must match the cold run's bytes.
//
// Prints one result line; exits 1 when a gate fails.
//
//   --smoke   sf 0.002 and one warm repeat per query (the CI gate);
//             the full run uses the largest PF_XMARK_SF_LIST scale
//             factor and the best of three warm repeats.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "api/pathfinder.h"
#include "bench/bench_util.h"
#include "xmark/queries.h"

namespace pathfinder::bench {
namespace {

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  double sf = smoke ? 0.002 : ScaleFactors().back();
  int warm_reps = smoke ? 1 : 3;

  xml::Database* db = XMarkDb(sf);
  Pathfinder pf(db);
  int version = 0;
  int registrations = 0;
  auto register_churn = [&] {
    char doc[96];
    std::snprintf(doc, sizeof(doc), "<churn v=\"%d\"/>", ++version);
    auto r = db->LoadXml("churn.xml", doc);
    if (r.ok()) ++registrations;
    return r.ok();
  };
  auto run = [&](const char* text) {
    QueryOptions opts;
    opts.context_doc = "auction.xml";
    opts.plan_cache = 1;
    opts.subplan_cache = 1;
    // Pin the budget so an ambient PF_CACHE_MB=0 cannot turn the warm
    // runs into cold ones, and admit every candidate so the smoke scale
    // factor (whose subtrees evaluate under the default floor) still
    // exercises warmth.
    opts.cache_budget_bytes = int64_t{64} << 20;
    opts.cache_min_cost_us = 0;
    return pf.Run(text, opts);
  };
  auto run_bytes = [&](const char* text) -> Result<std::string> {
    PF_ASSIGN_OR_RETURN(QueryResult r, run(text));
    return r.Serialize();
  };

  double total_cold = 0;
  double total_warm = 0;
  for (const auto& q : xmark::XMarkQueries()) {
    Result<std::string> cold = Status::Internal("unset");
    total_cold += TimeMs([&] { cold = run_bytes(q.text); });
    if (!cold.ok()) {
      std::fprintf(stderr, "Q%d (cold): %s\n", q.number,
                   cold.status().ToString().c_str());
      return 1;
    }
    // The store's generation moves between the runs; the bytes must
    // not.
    if (!register_churn()) return 1;
    Result<std::string> warm = run_bytes(q.text);
    if (!warm.ok() || *warm != *cold) {
      std::fprintf(stderr, "Q%d: warm-under-churn result diverges from "
                   "cold\n", q.number);
      return 1;
    }
    double warm_ms = 1e99;
    for (int rep = 0; rep < warm_reps; ++rep) {
      if (!register_churn()) return 1;
      warm_ms = std::min(warm_ms, TimeMs([&] { (void)run(q.text); }));
    }
    total_warm += warm_ms;
  }

  engine::CacheStats stats = pf.cache()->Stats();
  double speedup = total_warm > 0 ? total_cold / total_warm : 0.0;
  std::printf("cache churn: sf %g, cold %s ms, warm %s ms, speedup %sx "
              "(gate >= 2x), %d registrations, %lld per-doc "
              "invalidations, %lld plan hits, %lld subplan hits\n",
              sf, FmtMs(total_cold).c_str(), FmtMs(total_warm).c_str(),
              FmtFactor(speedup).c_str(), registrations,
              static_cast<long long>(stats.per_doc_invalidations),
              static_cast<long long>(stats.plan.hits),
              static_cast<long long>(stats.subplan.hits));
  if (registrations == 0 || stats.invalidations == 0) {
    std::fprintf(stderr, "churn ran without observed registrations\n");
    return 1;
  }
  if (stats.plan.hits == 0 || stats.subplan.hits == 0) {
    std::fprintf(stderr, "churn saw no cache hits\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr, "churn warm speedup below 2x gate\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pathfinder::bench

int main(int argc, char** argv) {
  return pathfinder::bench::Main(argc, argv);
}
