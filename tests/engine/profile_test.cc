// Per-operator execution profiler: the profile tree must mirror the
// executed plan exactly, carry hand-computable row counts, never
// exceed the externally observed wall time, and cost nothing — not
// even a timer call — when profiling is off.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/pathfinder.h"
#include "engine/profile.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/database.h"

namespace pathfinder {
namespace {

xml::Database* ShopDb() {
  static xml::Database* db = [] {
    auto* d = new xml::Database();
    auto r = d->LoadXml("shop.xml", R"(
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
</shop>)");
    EXPECT_TRUE(r.ok());
    return d;
  }();
  return db;
}

// DFS comparison of the profile tree against the executed plan DAG,
// reproducing the printer's shared-subplan convention: the first visit
// carries children, repeats must be shared_ref leaves.
void CheckShape(const algebra::OpPtr& op, const engine::OperatorProfile& p,
                std::unordered_set<const algebra::Op*>* seen) {
  ASSERT_EQ(p.op_id, op->id);
  ASSERT_EQ(p.kind, op->kind);
  ASSERT_EQ(p.pipe_frag, op->pipe_frag);
  if (!seen->insert(op.get()).second) {
    EXPECT_TRUE(p.shared_ref);
    EXPECT_TRUE(p.children.empty());
    return;
  }
  EXPECT_FALSE(p.shared_ref);
  ASSERT_EQ(p.children.size(), op->children.size());
  for (size_t i = 0; i < p.children.size(); ++i) {
    CheckShape(op->children[i], p.children[i], seen);
  }
}

void Flatten(const engine::OperatorProfile& p,
             std::vector<const engine::OperatorProfile*>* out) {
  out->push_back(&p);
  for (const auto& c : p.children) Flatten(c, out);
}

TEST(ProfileTest, OffMeansNoTreeAndNoTimerCalls) {
  // Pin the process default to off regardless of the ambient
  // environment, then prove the hot path never touches the clock.
  unsetenv("PF_PROFILE");
  Pathfinder pf(ShopDb());
  QueryOptions o;
  o.context_doc = "shop.xml";
  // Caches off too: cost-based subplan admission times candidate
  // subtrees with the profiler clock even when profiling is off.
  o.plan_cache = 0;
  o.subplan_cache = 0;
  // Explicit off.
  o.profile = 0;
  int64_t before = engine::ProfileTimerCalls();
  auto r = pf.Run("for $i in //item where $i/@price > 4 return $i", o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(engine::ProfileTimerCalls(), before);
  EXPECT_EQ(r->profile, nullptr);
  EXPECT_EQ(r->ProfileJson(), "");
  EXPECT_EQ(r->ProfileText(), "");
  // Process default (-1) with PF_PROFILE unset is off too.
  o.profile = -1;
  before = engine::ProfileTimerCalls();
  auto r2 = pf.Run("count(//item)", o);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(engine::ProfileTimerCalls(), before);
  EXPECT_EQ(r2->profile, nullptr);
}

TEST(ProfileTest, ExactRowCountsOnHandComputedQuery) {
  Pathfinder pf(ShopDb());
  QueryOptions o;
  o.context_doc = "shop.xml";
  o.profile = 1;
  o.pipeline = 0;     // one materialized BAT per operator
  o.num_threads = 1;  // exact serial paths
  auto r = pf.Run("for $i in //item where $i/@price > 4 return $i", o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->profile, nullptr);

  // The document has 4 items, 2 of them priced above 4 (a2=7, t1=30).
  ASSERT_EQ(r->items.size(), 2u);
  const engine::OperatorProfile& root = *r->profile;
  EXPECT_EQ(root.kind, algebra::OpKind::kSerialize);
  EXPECT_EQ(root.out_rows, 2);

  std::vector<const engine::OperatorProfile*> nodes;
  Flatten(root, &nodes);
  // The descendant::item step materializes exactly the 4 item elements.
  bool saw_item_step = false;
  for (const auto* n : nodes) {
    if (n->kind == algebra::OpKind::kStep &&
        n->label.find("item") != std::string::npos) {
      saw_item_step = true;
      EXPECT_EQ(n->out_rows, 4) << n->label;
    }
  }
  EXPECT_TRUE(saw_item_step);

  for (const auto* n : nodes) {
    // Fully materialized run: every operator owns a BAT.
    EXPECT_FALSE(n->fused);
    EXPECT_GE(n->out_rows, 0);
    EXPECT_GE(n->wall_ns, 0);
    if (n->out_rows > 0) {
      EXPECT_GE(n->morsels, 1);
      EXPECT_GT(n->out_bytes, 0);
    }
    // in_rows is the sum of child output rows whenever all children
    // materialized.
    if (!n->children.empty()) {
      int64_t sum = 0;
      bool known = true;
      for (const auto& c : n->children) {
        if (c.out_rows < 0) known = false;
        sum += c.out_rows;
      }
      if (known) {
        EXPECT_EQ(n->in_rows, sum) << n->label;
      }
    }
  }
}

TEST(ProfileTest, TreeMatchesExecutedPlanOnXMark) {
  xml::Database db;
  auto doc = xmark::GenerateXMark(0.002, 1, db.pool());
  ASSERT_TRUE(doc.ok());
  db.AddDocument("auction.xml", std::move(*doc));
  Pathfinder pf(&db);
  QueryOptions o;
  o.context_doc = "auction.xml";
  o.profile = 1;

  auto t0 = std::chrono::steady_clock::now();
  auto r = pf.Run("/site//item", o);
  auto total_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->profile, nullptr);

  // Shape: the tree mirrors the executed (optimized) plan node for
  // node, including the shared-subplan convention.
  std::unordered_set<const algebra::Op*> seen;
  CheckShape(r->plan_opt, *r->profile, &seen);

  // The generator's item count is known in closed form.
  xmark::XMarkCounts c = xmark::XMarkCounts::ForScaleFactor(0.002);
  EXPECT_EQ(r->profile->out_rows, static_cast<int64_t>(c.items));
  EXPECT_EQ(r->items.size(), static_cast<size_t>(c.items));

  // Per-operator times can never exceed the externally observed total
  // (each operator is timed once; fused interiors and shared refs are
  // zero).
  std::vector<const engine::OperatorProfile*> nodes;
  Flatten(*r->profile, &nodes);
  int64_t sum_ns = 0;
  for (const auto* n : nodes) {
    EXPECT_GE(n->wall_ns, 0);
    if (!n->shared_ref) sum_ns += n->wall_ns;
  }
  EXPECT_LE(sum_ns, total_ns);
}

TEST(ProfileTest, FusedInteriorsAttributeToFragmentTail) {
  Pathfinder pf(ShopDb());
  QueryOptions o;
  o.context_doc = "shop.xml";
  o.profile = 1;
  o.pipeline = 1;
  auto r = pf.Run(
      "//item[@price > 2][@price < 50][contains(@sku, \"a\")]", o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->profile, nullptr);
  ASSERT_GT(r->pipe_stats.fragments, 0);

  std::vector<const engine::OperatorProfile*> nodes;
  Flatten(*r->profile, &nodes);
  bool saw_fused = false, saw_tail = false;
  for (const auto* n : nodes) {
    if (n->shared_ref) continue;
    if (n->fused) {
      saw_fused = true;
      // Interior members never materialize a BAT of their own.
      EXPECT_EQ(n->out_rows, -1) << n->label;
      EXPECT_EQ(n->wall_ns, 0) << n->label;
    } else if (n->pipe_frag >= 0) {
      saw_tail = true;
      EXPECT_GE(n->out_rows, 0) << n->label;
      // A fragment over a 0-row input runs 0 morsels; any output rows
      // imply at least one.
      EXPECT_GE(n->morsels, n->out_rows > 0 ? 1 : 0) << n->label;
    }
  }
  EXPECT_TRUE(saw_fused);
  EXPECT_TRUE(saw_tail);
}

TEST(ProfileTest, PathSummaryCountersAreExact) {
  Pathfinder pf(ShopDb());
  QueryOptions o;
  o.context_doc = "shop.xml";
  o.profile = 1;
  o.num_threads = 1;
  o.plan_cache = 0;
  o.subplan_cache = 0;
  o.path_summary = 1;
  const std::string q =
      "for $d in /shop/dept return count($d/descendant::item)";
  auto r = pf.Run(q, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The /shop/dept chain collapses to one path scan, answered from
  // partitions alone...
  EXPECT_EQ(r->opt_stats.structural_answers, 1);
  EXPECT_EQ(r->scj_stats.structural_answers, 1u);
  // ...and descendant::item scans only the item partition: 5 of the 6
  // element paths (/shop, dept, item, item/note, orders, orders/order)
  // are pruned from each of the two staircase calls (one per $d
  // iteration group).
  EXPECT_EQ(r->scj_stats.path_partitions_pruned, 10u);

  const std::string text = r->ProfileText();
  EXPECT_NE(text.find("# pathsum: 1 chains collapsed, 1 structural answers, "
                      "10 partitions pruned"),
            std::string::npos)
      << text;
  const std::string json = r->ProfileJson();
  EXPECT_NE(json.find("\"pathsum\": {\"chains_collapsed\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"structural_answers\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"path_partitions_pruned\": 10"), std::string::npos)
      << json;

  // Off: every path-summary counter reports zero.
  o.path_summary = 0;
  auto r0 = pf.Run(q, o);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_EQ(r0->opt_stats.structural_answers, 0);
  EXPECT_EQ(r0->scj_stats.structural_answers, 0u);
  EXPECT_EQ(r0->scj_stats.path_partitions_pruned, 0u);
  EXPECT_NE(r0->ProfileText().find("# pathsum: 0 chains collapsed"),
            std::string::npos);
}

TEST(ProfileTest, RenderingsAreWellFormed) {
  Pathfinder pf(ShopDb());
  QueryOptions o;
  o.context_doc = "shop.xml";
  o.profile = 1;
  auto r = pf.Run("for $i in //item order by $i/@price return $i/@sku", o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->profile, nullptr);

  std::string json = r->ProfileJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  std::string text = r->ProfileText();
  ASSERT_FALSE(text.empty());
  // Every rendered line of the executed plan is annotated: either with
  // measurements or with the fused marker (shared "^id" refs excepted).
  EXPECT_NE(text.find(" rows,"), std::string::npos);
  EXPECT_NE(text.find("morsels"), std::string::npos);
}

}  // namespace
}  // namespace pathfinder
