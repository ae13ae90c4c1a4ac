// Update-churn benchmark: incremental maintenance vs full re-shred.
//
// A generated XMark instance takes a long stream of random node
// updates (child inserts, subtree deletes, value replacements). Each
// update runs twice:
//
//   * incremental — xml::ApplyUpdate splices the pre|size|level
//     columns and repairs the shred-time stats and path summary in
//     place (the engine's maintenance path);
//   * re-shred    — the post-update serialization is parsed and
//     shredded from scratch into a fresh database (parse + encode +
//     full stats + full path summary), the way a store without
//     incremental maintenance would have to refresh the document.
//
// The re-shredded snapshot is the oracle: its serialization must be
// byte-identical to the incremental snapshot's, and a panel of
// structural queries (answered through the maintained path summary)
// must serialize byte-identically on both databases. Prints one result
// line and gates the maintenance-path speedup (exit 1 below the gate).
//
//   --smoke   tiny scale factor and a short op stream, gate >= 2x —
//             the CI gate. The full run uses sf 0.05 and gates >= 10x
//             (the acceptance target).

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "api/pathfinder.h"
#include "base/rng.h"
#include "bench/bench_util.h"
#include "xmark/generator.h"
#include "xml/database.h"
#include "xml/serializer.h"
#include "xml/update.h"

namespace pathfinder::bench {
namespace {

constexpr const char* kDocName = "auction.xml";

// Structural shapes the path summary answers (wrong partition repair
// shows up here), plus a value lookup that mixes in the value columns.
constexpr const char* kOracleQueries[] = {
    "count(//item)",
    "count(//open_auction/bidder)",
    "//site/regions/*[1]/item[1]/name",
    "count(//person[exists(@id)])",
};

constexpr const char* kFragments[] = {
    "<item id=\"churn\"><name>widget</name>"
    "<description><text>plain</text></description></item>",
    "<keyword>churn</keyword>",
    "<annotation><description><text>note <emph>hot</emph></text>"
    "</description></annotation>",
    "<watch open_auction=\"open_auction0\"/>",
};

struct OpCounts {
  int inserts = 0;
  int deletes = 0;
  int replaces = 0;
};

// One random valid update against the current snapshot. Mirrors the
// model suite's generator: element targets for inserts, non-root
// targets for deletes, numeric replacement values.
xml::NodeUpdate NextOp(const xml::Document& cur, Rng* rng, int round,
                       OpCounts* counts) {
  for (;;) {
    xml::NodeUpdate u;
    u.target =
        static_cast<xml::Pre>(1 + rng->Below(cur.num_nodes() - 1));
    switch (rng->Below(3)) {
      case 0:
        if (cur.kind(u.target) != xml::NodeKind::kElem) continue;
        u.kind = xml::NodeUpdate::Kind::kInsertChild;
        u.position =
            rng->Chance(0.5) ? -1 : static_cast<int32_t>(rng->Below(4));
        u.xml = kFragments[rng->Below(std::size(kFragments))];
        ++counts->inserts;
        return u;
      case 1:
        if (u.target == 1) continue;  // the root element stays
        u.kind = xml::NodeUpdate::Kind::kDelete;
        ++counts->deletes;
        return u;
      default:
        if (u.target == 1) continue;  // don't wipe the whole document
        u.kind = xml::NodeUpdate::Kind::kReplaceValue;
        u.value = std::to_string(round) + ".5";
        ++counts->replaces;
        return u;
    }
  }
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double sf = smoke ? 0.002 : 0.05;
  const int rounds = smoke ? 30 : 100;
  const int check_every = smoke ? 5 : 20;
  const double gate = smoke ? 2.0 : 10.0;

  xml::Database db;
  {
    auto doc = xmark::GenerateXMark(sf, 42, db.pool());
    if (!doc.ok()) {
      std::fprintf(stderr, "generate: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    db.AddDocument(kDocName, std::move(doc.value()));
  }

  Rng rng(7);
  OpCounts counts;
  double incremental_ms = 0;
  double reshred_ms = 0;
  int checks = 0;
  for (int round = 0; round < rounds; ++round) {
    auto frag = db.FindDocument(kDocName);
    xml::NodeUpdate u = NextOp(db.doc(*frag), &rng, round, &counts);

    Result<xml::UpdateResult> applied = Status::Internal("unset");
    incremental_ms +=
        TimeMs([&] { applied = xml::ApplyUpdate(&db, kDocName, u); });
    if (!applied.ok()) {
      std::fprintf(stderr, "round %d: %s\n", round,
                   applied.status().ToString().c_str());
      return 1;
    }

    // Re-shred oracle: rebuild the post-update snapshot from its
    // serialization in a fresh database (the serialization itself is
    // harness work, not timed).
    const xml::Document& inc = db.doc(applied->frag);
    std::string bytes = xml::SerializeDocument(inc, *db.pool());
    xml::Database oracle;
    Result<xml::FragId> refrag = Status::Internal("unset");
    reshred_ms += TimeMs([&] { refrag = oracle.LoadXml(kDocName, bytes); });
    if (!refrag.ok()) {
      std::fprintf(stderr, "round %d reshred: %s\n", round,
                   refrag.status().ToString().c_str());
      return 1;
    }

    if (round % check_every == 0 || round + 1 == rounds) {
      ++checks;
      // Byte-identity of the documents themselves...
      std::string oracle_bytes =
          xml::SerializeDocument(oracle.doc(*refrag), *oracle.pool());
      if (bytes != oracle_bytes) {
        std::fprintf(stderr,
                     "round %d: incremental snapshot diverges from "
                     "re-shred oracle\n",
                     round);
        return 1;
      }
      // ...and of query results answered through the *maintained*
      // stats and path summary vs the freshly built ones.
      Pathfinder inc_pf(&db);
      Pathfinder ora_pf(&oracle);
      for (const char* q : kOracleQueries) {
        QueryOptions o;
        o.context_doc = kDocName;
        auto ir = inc_pf.Run(q, o);
        auto orr = ora_pf.Run(q, o);
        if (!ir.ok() || !orr.ok()) {
          std::fprintf(stderr, "round %d: oracle query failed: %s\n", round,
                       (!ir.ok() ? ir : orr).status().ToString().c_str());
          return 1;
        }
        auto is = ir->Serialize();
        auto os = orr->Serialize();
        if (!is.ok() || !os.ok() || *is != *os) {
          std::fprintf(stderr,
                       "round %d: query '%s' diverges between maintained "
                       "and re-shredded snapshots\n",
                       round, q);
          return 1;
        }
      }
    }
  }

  double speedup = incremental_ms > 0 ? reshred_ms / incremental_ms : 0;
  std::printf("update churn: sf %g, %d ops (%d inserts, %d deletes, %d "
              "replaces), incremental %s ms, re-shred %s ms, speedup %sx "
              "(gate >= %gx), %d oracle checks byte-identical\n",
              sf, rounds, counts.inserts, counts.deletes, counts.replaces,
              FmtMs(incremental_ms).c_str(), FmtMs(reshred_ms).c_str(),
              FmtFactor(speedup).c_str(), gate, checks);
  if (speedup < gate) {
    std::fprintf(stderr, "maintenance-path speedup below %gx gate\n", gate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pathfinder::bench

int main(int argc, char** argv) {
  return pathfinder::bench::Main(argc, argv);
}
