#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "api/pathfinder.h"
#include "base/rng.h"
#include "baseline/interp.h"
#include "xml/database.h"
#include "xml/update.h"

namespace pathfinder {
namespace {

/// Random-query differential fuzzing: generate syntactically valid
/// queries from a grammar covering the supported dialect, run them on
/// the relational engine (several knob configurations) and the
/// navigational baseline, and require byte-identical serialization.
///
/// The generator only produces value expressions whose semantics are
/// defined in our dialect (e.g. comparisons between atomizable
/// operands), so every generated query must succeed on both engines.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Query() {
    depth_ = 0;
    vars_ = {};
    return SeqExpr();
  }

 private:
  std::string Pick(const std::vector<std::string>& opts) {
    return opts[rng_.Below(opts.size())];
  }

  std::string FreshVar() {
    std::string v = "v" + std::to_string(var_counter_++);
    vars_.push_back(v);
    return v;
  }

  /// A path producing element nodes of the fixture document.
  std::string NodePath() {
    // Occasionally stack extra value predicates on a base path: each
    // predicate compiles to its own select (plus attach/fun maps), so
    // these produce deep σ→map chains.
    if (rng_.Chance(0.3)) return DeepNodePath();
    return Pick({
        "//item",
        "//dept",
        "/shop/dept/item",
        "//item[@price > 4]",
        "//order",
        "(//item)[2]",
        "//dept[1]/item",
        "//item/following-sibling::*",
        "//note/ancestor::dept",
    });
  }

  /// A multi-predicate path: base step plus 1..3 value predicates,
  /// optionally continued by a trailing step. Predicates compare
  /// against attributes that may be absent on some elements — a
  /// comparison with the empty sequence is false, which both engines
  /// must agree on.
  std::string DeepNodePath() {
    std::string p = Pick({"//item", "/shop/dept/item", "//dept/item"});
    size_t preds = rng_.Range(1, 3);
    for (size_t i = 0; i < preds; ++i) {
      p += Pick({
          "[@price > 2]",
          "[@price < 50]",
          "[@price >= 3]",
          "[contains(@sku, \"a\")]",
          "[contains(@sku, \"t\")]",
          "[contains(string(.), \"a\")]",
          "[exists(@sku)]",
          "[not(@price = 30)]",
      });
    }
    if (rng_.Chance(0.4)) p += Pick({"/@sku", "/@price", "/note"});
    return p;
  }

  /// An expression producing numbers (possibly a sequence).
  std::string NumExpr() {
    ++depth_;
    std::string out;
    if (depth_ > 3) {
      out = Pick({"1", "2", "7", "41", "3.5", "0"});
    } else {
      switch (rng_.Below(7)) {
        case 0:
          out = "(" + NumExpr() + " + " + NumExpr() + ")";
          break;
        case 1:
          out = "(" + NumExpr() + " * " + NumExpr() + ")";
          break;
        case 2:
          out = "count(" + NodePath() + ")";
          break;
        case 3:
          out = "sum(" + NodePath() + "/@price)";
          break;
        case 4:
          out = "string-length(" + StrExpr() + ")";
          break;
        case 5:
          if (!vars_.empty()) {
            out = "count($" + Pick(vars_) + ")";
            break;
          }
          [[fallthrough]];
        default:
          out = Pick({"1", "2", "7", "41", "3.5", "0"});
          break;
      }
    }
    --depth_;
    return out;
  }

  std::string StrExpr() {
    ++depth_;
    std::string out;
    if (depth_ > 3) {
      out = Pick({"\"a\"", "\"gold\"", "\"\""});
    } else {
      switch (rng_.Below(4)) {
        case 0:
          out = "string((" + NodePath() + ")[1])";
          break;
        case 1:
          out = "concat(" + StrExpr() + ", " + StrExpr() + ")";
          break;
        case 2:
          out = "string(" + NumExpr() + ")";
          break;
        default:
          out = Pick({"\"a\"", "\"ham\"", "\"x\""});
          break;
      }
    }
    --depth_;
    return out;
  }

  std::string BoolExpr() {
    ++depth_;
    std::string out;
    if (depth_ > 3) {
      out = Pick({"true()", "false()"});
    } else {
      switch (rng_.Below(6)) {
        case 0:
          out = "(" + NumExpr() + " " + Pick({"<", "<=", "=", ">", ">="}) +
                " " + NumExpr() + ")";
          break;
        case 1:
          out = "contains(" + StrExpr() + ", " + StrExpr() + ")";
          break;
        case 2:
          out = "empty(" + NodePath() + ")";
          break;
        case 3:
          out = "(" + BoolExpr() + " " + Pick({"and", "or"}) + " " +
                BoolExpr() + ")";
          break;
        case 4:
          out = "not(" + BoolExpr() + ")";
          break;
        default:
          out = "exists(" + NodePath() + ")";
          break;
      }
    }
    --depth_;
    return out;
  }

  /// Any single expression.
  std::string Single() {
    ++depth_;
    std::string out;
    switch (depth_ > 3 ? rng_.Below(3) : rng_.Below(8)) {
      case 0:
        out = NumExpr();
        break;
      case 1:
        out = StrExpr();
        break;
      case 2:
        out = BoolExpr();
        break;
      case 3:
        out = Flwor();
        break;
      case 4:
        out = "if (" + BoolExpr() + ") then " + Single() + " else " +
              Single();
        break;
      case 5:
        out = NodePath();
        break;
      case 6:
        out = "<w n=\"{ " + NumExpr() + " }\">{ " + Single() + " }</w>";
        break;
      default:
        out = "data((" + NodePath() + ")[1]/@sku)";
        break;
    }
    --depth_;
    return out;
  }

  /// A two-generator FLWOR whose where clause equi-joins the two
  /// bindings on attribute values — the value-join shape the join-graph
  /// pass (PF_JOINOPT) isolates, with optional extra conjuncts that
  /// compile to post-join selects (pushdown fodder).
  std::string JoinFlwor() {
    size_t vars_before = vars_.size();
    std::string a = FreshVar();
    std::string b = FreshVar();
    std::string q = "for $" + a + " in " +
                    Pick({"//item", "/shop/dept/item"}) + " for $" + b +
                    " in //order where $" + b + "/@ref = $" + a + "/@sku";
    if (rng_.Chance(0.5)) {
      q += " and $" + a + "/@price " + Pick({">", "<", ">=", "="}) + " " +
           Pick({"2", "5", "30"});
    }
    if (rng_.Chance(0.3)) q += " and $" + b + "/@qty > 1";
    q += " return ";
    q += Pick({"$" + a + "/@sku", "$" + b + "/@qty",
               "($" + a + "/@price, $" + b + "/@qty)",
               "<j>{ $" + a + "/text() }</j>"});
    vars_.resize(vars_before);
    return q;
  }

  std::string Flwor() {
    // A fifth of all FLWORs are explicit two-generator value joins.
    if (depth_ <= 2 && rng_.Chance(0.2)) return JoinFlwor();
    size_t vars_before = vars_.size();
    // The domain is generated BEFORE the variable becomes visible.
    std::string domain = rng_.Chance(0.5)
                             ? NodePath()
                             : "(" + NumExpr() + ", " + NumExpr() + ")";
    std::string v = FreshVar();
    std::string q = "for $" + v + " in " + domain + " ";
    if (rng_.Chance(0.4)) {
      std::string init = Single();  // before the binding is visible
      std::string lv = FreshVar();
      q += "let $" + lv + " := " + init + " ";
    }
    if (rng_.Chance(0.5)) {
      // Sometimes a multi-conjunct where clause: each conjunct becomes
      // its own select over the loop relation, extending the fusable
      // chain.
      std::string cond = BoolExpr();
      size_t extra = rng_.Chance(0.4) ? rng_.Range(1, 2) : 0;
      for (size_t i = 0; i < extra; ++i) cond += " and " + BoolExpr();
      q += "where " + cond + " ";
    }
    if (rng_.Chance(0.3)) {
      q += "order by " + NumExpr() + (rng_.Chance(0.5) ? " descending" : "") +
           " ";
    }
    q += "return " + Single();
    vars_.resize(vars_before);  // out of scope after the FLWOR
    return q;
  }

  std::string SeqExpr() {
    int n = static_cast<int>(rng_.Range(1, 2));
    std::string q;
    for (int i = 0; i < n; ++i) {
      if (i) q += ", ";
      q += Single();
    }
    return n > 1 ? "(" + q + ")" : q;
  }

  Rng rng_;
  int depth_ = 0;
  int var_counter_ = 0;
  std::vector<std::string> vars_;
};

constexpr const char* kShopXml = R"(
<shop>
  <dept name="fruit">
    <item sku="a1" price="3">apple</item>
    <item sku="a2" price="7">pear<note>ripe</note></item>
  </dept>
  <dept name="tools">
    <item sku="t1" price="30">hammer</item>
    <item sku="t2" price="3">nail</item>
  </dept>
  <orders><order ref="a1" qty="2"/><order ref="t2" qty="500"/></orders>
</shop>)";

xml::Database* ShopDb() {
  static xml::Database* db = [] {
    auto* d = new xml::Database();
    auto r = d->LoadXml("shop.xml", kShopXml);
    EXPECT_TRUE(r.ok());
    return d;
  }();
  return db;
}

class RandomQueryTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static xml::Database* db() { return ShopDb(); }
};

TEST_P(RandomQueryTest, EnginesAgreeOnGeneratedQueries) {
  QueryGen gen(GetParam());
  for (int i = 0; i < 20; ++i) {
    std::string q = gen.Query();
    SCOPED_TRACE(q);

    baseline::Baseline bl(db());
    baseline::BaselineOptions bo;
    bo.context_doc = "shop.xml";
    auto br = bl.Run(q, bo);
    ASSERT_TRUE(br.ok()) << br.status().ToString();
    auto bs = br->Serialize();
    ASSERT_TRUE(bs.ok());

    Pathfinder pf(db());
    // Masks 0-2 toggle compiler knobs; 3 repeats mask 0 against the
    // caches it warmed, and 4 runs two worker threads over the whole
    // random dialect. Masks 5-6 re-run representative configurations
    // with profiling on (6 with two threads): collection must never
    // perturb results, and the profile tree must materialize. Masks
    // 7-9 sweep the cache/CSE knobs: 7 disables CSE, 8 forces both
    // caches on with a budget small enough to churn (all masks share
    // this Pathfinder, so 8 is served against a cache warmed by earlier
    // masks), 9 pins both caches off. Masks 10-11 pin the join-graph
    // pass off and on (overriding the PF_JOINOPT process default): its
    // rewrites must be invisible in every serialized byte.
    for (int mask = 0; mask < 12; ++mask) {
      QueryOptions o;
      o.context_doc = "shop.xml";
      o.join_recognition = mask != 1;
      o.optimize = mask != 2;
      if (mask == 4 || mask == 6) o.num_threads = 2;
      o.profile = mask >= 5 && mask < 7 ? 1 : 0;  // pin ambient PF_PROFILE
      if (mask == 7) o.cse = 0;
      if (mask == 8) {
        o.plan_cache = 1;
        o.subplan_cache = 1;
        o.cache_budget_bytes = 1 << 20;
      }
      if (mask == 9) {
        o.plan_cache = 0;
        o.subplan_cache = 0;
      }
      if (mask >= 10) {
        o.join_opt = mask - 10;
        o.plan_cache = 0;  // force both variants through the optimizer
      }
      auto pr = pf.Run(q, o);
      ASSERT_TRUE(pr.ok()) << pr.status().ToString() << " mask=" << mask;
      auto ps = pr->Serialize();
      ASSERT_TRUE(ps.ok());
      ASSERT_EQ(*ps, *bs) << "mask=" << mask;
      if (mask >= 5 && mask < 7) {
        ASSERT_NE(pr->profile, nullptr) << "mask=" << mask;
        EXPECT_FALSE(pr->ProfileJson().empty()) << "mask=" << mask;
      } else {
        EXPECT_EQ(pr->profile, nullptr) << "mask=" << mask;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Range<uint64_t>(1, 46));

// Zipf-skewed fixture for the partitioned kernels: item skus and order
// refs are drawn from Zipf laws, so one join key (and with radix_bits
// forced to 1, one radix partition) carries a large fraction of all
// rows, and one dept holds most items so one combine partition does
// nearly all GroupAgg work. The doc is sized past the kernels'
// parallel thresholds (9000 items) so that, with the tuning knobs
// forced small, the partition-imbalance paths actually run — this
// suite is in the TSan CI lane precisely so those paths execute under
// the race detector.
xml::Database* SkewDb() {
  static xml::Database* db = [] {
    auto* d = new xml::Database();
    Rng rng(20260809);
    std::vector<std::string> dept_items(40);
    for (int i = 0; i < 9000; ++i) {
      uint64_t dept = rng.Zipf(40, 1.2);
      uint64_t sku = rng.Zipf(300, 1.1);
      uint64_t price = rng.Zipf(20, 1.3) + 1;
      dept_items[dept] += "<item sku=\"s" + std::to_string(sku) +
                          "\" price=\"" + std::to_string(price) + "\"/>";
    }
    std::string x = "<skew><catalog>";
    for (int dept = 0; dept < 40; ++dept) {
      x += "<dept n=\"d" + std::to_string(dept) + "\">" + dept_items[dept] +
           "</dept>";
    }
    x += "</catalog><orders>";
    for (int i = 0; i < 120; ++i) {
      x += "<order ref=\"s" + std::to_string(rng.Zipf(300, 1.1)) +
           "\" qty=\"" + std::to_string(rng.Range(1, 9)) + "\"/>";
    }
    x += "</orders></skew>";
    auto r = d->LoadXml("skew.xml", x);
    EXPECT_TRUE(r.ok());
    return d;
  }();
  return db;
}

TEST(ZipfSkew, PartitionImbalanceByteIdentical) {
  // The queries drive each partitioned kernel through the skewed data:
  // an equi-join on the Zipf sku key, a grouped sum whose hot dept
  // dominates one combine partition, a sort of the hot dept (long tie
  // runs from the Zipf prices), and a skew-selectivity filter.
  const char* kQueries[] = {
      // where-clause form so join recognition fires: the engine runs a
      // radix hash join on the Zipf sku key (the baseline stays a
      // navigational nested loop, which bounds the order count above).
      "sum(for $o in //order return count(for $i in //item "
      "where $i/@sku = $o/@ref return $i))",
      "for $d in //dept return sum($d/item/@price)",
      "for $i in //dept[1]/item order by $i/@price + 0 descending "
      "return string($i/@sku)",
      "count(//item[@price > 3])",
  };
  // Tuning sweeps: radix_bits=1 funnels the hot key's partition-mate
  // keys into one of TWO partitions; radix_bits=12 leaves most of 4096
  // partitions empty; tiny morsel/run grains maximize cross-chunk
  // merge traffic. All must serialize byte-identically to the
  // navigational baseline.
  struct Cfg {
    int threads, radix_bits;
    int64_t morsel, sort_chunk;
  };
  const Cfg kCfgs[] = {
      {1, -1, -1, -1},
      {2, 1, 64, 256},
      {2, 12, 64, 256},
      {4, 6, 256, 512},
  };
  baseline::Baseline bl(SkewDb());
  baseline::BaselineOptions bo;
  bo.context_doc = "skew.xml";
  Pathfinder pf(SkewDb());
  for (const char* q : kQueries) {
    SCOPED_TRACE(q);
    auto br = bl.Run(q, bo);
    ASSERT_TRUE(br.ok()) << br.status().ToString();
    auto bs = br->Serialize();
    ASSERT_TRUE(bs.ok());
    for (const Cfg& c : kCfgs) {
      QueryOptions o;
      o.context_doc = "skew.xml";
      o.num_threads = c.threads;
      o.radix_bits = c.radix_bits;
      o.morsel_rows = c.morsel;
      o.sort_chunk_rows = c.sort_chunk;
      o.profile = 0;
      // Caches off: every config must actually execute the partitioned
      // kernels, not replay the first config's cached result.
      o.plan_cache = 0;
      o.subplan_cache = 0;
      auto pr = pf.Run(q, o);
      ASSERT_TRUE(pr.ok()) << pr.status().ToString()
                           << " threads=" << c.threads;
      auto ps = pr->Serialize();
      ASSERT_TRUE(ps.ok());
      ASSERT_EQ(*ps, *bs) << "threads=" << c.threads
                          << " radix_bits=" << c.radix_bits;
    }
  }
}

// ------------------------------------------------------- update churn --

// Interleave random node updates with generated queries on a private
// database: the incrementally-maintained structures (path summary
// partitions and fan-outs, repaired query cache) must stay
// byte-identical to the navigational baseline, which recomputes from
// the raw columns on every run. The Pathfinder instance persists
// across rounds so its plan and subplan caches live through every
// mutation — a stale entry surviving an epoch bump, or a bad repair of
// a value-free entry, shows up as a serialization diff.
class UpdateChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdateChurnTest, EnginesAgreeAcrossChurn) {
  xml::Database db;  // private: churn must not leak into other tests
  ASSERT_TRUE(db.LoadXml("shop.xml", kShopXml).ok());
  Pathfinder pf(&db);
  QueryGen gen(GetParam() * 977 + 1);
  Rng rng(GetParam());
  const char* kFragments[] = {
      "<item sku=\"u1\" price=\"5\">thing</item>",
      "<note>restock</note>",
      "<order ref=\"a2\" qty=\"4\"/>",
      "<dept name=\"misc\"><item sku=\"m1\" price=\"2\">bolt</item></dept>",
  };
  for (int round = 0; round < 8; ++round) {
    // One random mutation per round; picks the update layer would
    // reject (or that would wipe the whole document) are re-rolled.
    bool applied = false;
    for (int attempt = 0; attempt < 64 && !applied; ++attempt) {
      auto frag = db.FindDocument("shop.xml");
      ASSERT_TRUE(frag.ok());
      const xml::Document& cur = db.doc(*frag);
      xml::NodeUpdate u;
      u.target = static_cast<xml::Pre>(1 + rng.Below(cur.num_nodes() - 1));
      switch (rng.Below(3)) {
        case 0:
          u.kind = xml::NodeUpdate::Kind::kInsertChild;
          u.position =
              rng.Chance(0.5) ? -1 : static_cast<int32_t>(rng.Below(4));
          u.xml = kFragments[rng.Below(std::size(kFragments))];
          break;
        case 1:
          u.kind = xml::NodeUpdate::Kind::kDelete;
          break;
        default:
          u.kind = xml::NodeUpdate::Kind::kReplaceValue;
          // Numeric, so @price/@qty arithmetic in generated queries
          // keeps type-checking on both engines.
          u.value = std::to_string(round + 2);
          break;
      }
      if (u.target == 1 && u.kind != xml::NodeUpdate::Kind::kInsertChild) {
        continue;  // keep the root element and its content alive
      }
      if (u.kind == xml::NodeUpdate::Kind::kInsertChild &&
          cur.kind(u.target) != xml::NodeKind::kElem) {
        continue;
      }
      auto r = xml::ApplyUpdate(&db, "shop.xml", u);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      applied = true;
    }
    ASSERT_TRUE(applied) << "no valid mutation found in round " << round;

    for (int i = 0; i < 3; ++i) {
      std::string q = gen.Query();
      SCOPED_TRACE("round " + std::to_string(round) + ": " + q);
      baseline::Baseline bl(&db);
      baseline::BaselineOptions bo;
      bo.context_doc = "shop.xml";
      auto br = bl.Run(q, bo);
      ASSERT_TRUE(br.ok()) << br.status().ToString();
      auto bs = br->Serialize();
      ASSERT_TRUE(bs.ok());
      // Mask 0 runs the process defaults. Mask 1 pins both caches on
      // with repair enabled (content-only churn repairs value-free
      // entries in place); mask 2 pins repair off, so every churn
      // falls back to the epoch bump. Mask 3 runs cache-free with two
      // worker threads.
      for (int mask = 0; mask < 4; ++mask) {
        QueryOptions o;
        o.context_doc = "shop.xml";
        if (mask == 1 || mask == 2) {
          o.plan_cache = 1;
          o.subplan_cache = 1;
          o.cache_repair = mask == 1 ? 1 : 0;
        }
        if (mask == 3) {
          o.plan_cache = 0;
          o.subplan_cache = 0;
          o.num_threads = 2;
        }
        auto pr = pf.Run(q, o);
        ASSERT_TRUE(pr.ok()) << pr.status().ToString() << " mask=" << mask;
        auto ps = pr->Serialize();
        ASSERT_TRUE(ps.ok());
        ASSERT_EQ(*ps, *bs) << "mask=" << mask;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateChurnTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace pathfinder
