// Unit tests for node-level document updates (xml/update.h).
//
// Every structural assertion runs against a *re-shred oracle*: the
// update semantics re-implemented naively by re-emitting the whole tree
// through TreeBuilder with the update applied during the walk — an
// independent code path sharing nothing with the splice. The spliced
// snapshot must match the oracle column for column (pre|size|level|
// kind|prop|value, bit-identical), every repaired statistic (each one
// an upper bound) must dominate a from-scratch ComputeDocStats, and its
// repaired path summary must be semantically identical to a
// from-scratch BuildPathSummary.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "xml/database.h"
#include "xml/parser.h"
#include "xml/path_summary.h"
#include "xml/serializer.h"
#include "xml/stats.h"
#include "xml/tree_builder.h"
#include "xml/update.h"

namespace pathfinder::xml {
namespace {

// --- re-shred oracle ------------------------------------------------------

// Emit the subtree below element/doc `v` of `doc` verbatim.
void EmitSubtree(const Document& doc, const StringPool& pool, Pre v,
                 TreeBuilder* b);

void EmitChildrenVerbatim(const Document& doc, const StringPool& pool, Pre v,
                          TreeBuilder* b) {
  Pre end = v + doc.size(v);
  Pre w = v + 1;
  while (w <= end && doc.IsAttr(w) && doc.level(w) == doc.level(v) + 1) {
    b->Attr(pool.Get(doc.prop(w)), pool.Get(doc.value(w)));
    ++w;
  }
  while (w <= end) {
    EmitSubtree(doc, pool, w, b);
    w += doc.size(w) + 1;
  }
}

void EmitSubtree(const Document& doc, const StringPool& pool, Pre v,
                 TreeBuilder* b) {
  switch (doc.kind(v)) {
    case NodeKind::kElem:
      b->StartElem(pool.Get(doc.prop(v)));
      EmitChildrenVerbatim(doc, pool, v, b);
      b->EndElem();
      break;
    case NodeKind::kText:
      b->Text(pool.Get(doc.value(v)));
      break;
    case NodeKind::kComment:
      b->Comment(pool.Get(doc.value(v)));
      break;
    case NodeKind::kPi:
      b->Pi(pool.Get(doc.prop(v)), pool.Get(doc.value(v)));
      break;
    default:
      break;
  }
}

// The naive updater: re-emits `base` with `u` applied during the walk.
struct NaiveUpdater {
  const Document& base;
  StringPool* pool;
  const NodeUpdate& u;
  const Document* frag = nullptr;  // parsed insert fragment

  void EmitNode(Pre v, TreeBuilder* b) const {
    if (u.kind == NodeUpdate::Kind::kDelete && v == u.target) return;
    switch (base.kind(v)) {
      case NodeKind::kElem:
        b->StartElem(pool->Get(base.prop(v)));
        EmitElemContent(v, b);
        b->EndElem();
        break;
      case NodeKind::kText:
        b->Text(v == u.target && u.kind == NodeUpdate::Kind::kReplaceValue
                    ? std::string_view(u.value)
                    : pool->Get(base.value(v)));
        break;
      case NodeKind::kComment:
        b->Comment(v == u.target && u.kind == NodeUpdate::Kind::kReplaceValue
                       ? std::string_view(u.value)
                       : pool->Get(base.value(v)));
        break;
      case NodeKind::kPi:
        b->Pi(pool->Get(base.prop(v)),
              v == u.target && u.kind == NodeUpdate::Kind::kReplaceValue
                  ? std::string_view(u.value)
                  : pool->Get(base.value(v)));
        break;
      default:
        break;
    }
  }

  void EmitElemContent(Pre v, TreeBuilder* b) const {
    Pre end = v + base.size(v);
    Pre w = v + 1;
    while (w <= end && base.IsAttr(w) && base.level(w) == base.level(v) + 1) {
      if (w == u.target && u.kind == NodeUpdate::Kind::kDelete) {
        ++w;
        continue;
      }
      b->Attr(pool->Get(base.prop(w)),
              w == u.target && u.kind == NodeUpdate::Kind::kReplaceValue
                  ? std::string_view(u.value)
                  : pool->Get(base.value(w)));
      ++w;
    }
    if (v == u.target && u.kind == NodeUpdate::Kind::kReplaceValue) {
      // Element replace-value: content becomes the single text node.
      if (!u.value.empty()) b->Text(u.value);
      return;
    }
    bool inserting = v == u.target && u.kind == NodeUpdate::Kind::kInsertChild;
    int32_t idx = 0;
    while (w <= end) {
      if (inserting && u.position >= 0 && idx == u.position) {
        EmitFragment(b);
        inserting = false;
      }
      EmitNode(w, b);
      w += base.size(w) + 1;
      ++idx;
    }
    if (inserting) EmitFragment(b);  // append (position -1 or past end)
  }

  void EmitFragment(TreeBuilder* b) const {
    EmitChildrenVerbatim(*frag, *pool, 0, b);
  }
};

Result<Document> NaiveApply(const Document& base, StringPool* pool,
                            const NodeUpdate& u) {
  Document frag;
  NaiveUpdater n{base, pool, u};
  if (u.kind == NodeUpdate::Kind::kInsertChild) {
    PF_ASSIGN_OR_RETURN(frag, ParseXml(u.xml, pool));
    n.frag = &frag;
  }
  TreeBuilder b(pool);
  Pre end = base.size(0);
  Pre w = 1;
  while (w <= end) {
    n.EmitNode(w, &b);
    w += base.size(w) + 1;
  }
  return std::move(b).Finish();
}

// --- comparison helpers ---------------------------------------------------

void ExpectSameColumns(const Document& got, const Document& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.sizes(), want.sizes());
  EXPECT_EQ(got.levels(), want.levels());
  EXPECT_EQ(got.kinds(), want.kinds());
  EXPECT_EQ(got.props(), want.props());
  EXPECT_EQ(got.values(), want.values());
}

// Every repaired maximum must be at least its from-scratch value.
void ExpectStatsRepaired(const DocStats& got, const DocStats& exact) {
  for (const auto& [tag, mx] : exact.max_children) {
    EXPECT_GE(got.MaxChildren(tag), mx) << "child fan-out below exact";
  }
  EXPECT_GE(got.max_text_children, exact.max_text_children);
  for (const auto& [name, mx] : exact.max_per_owner) {
    EXPECT_GE(got.MaxPerOwner(name), mx) << "attribute fan-out below exact";
  }
}

// Canonical semantic form of a path summary: label path -> (node count,
// partition pres). Paths the repair kept with an empty partition are
// invisible here, exactly like absent paths are to every consumer.
using CanonSummary =
    std::map<std::string, std::pair<uint32_t, std::vector<Pre>>>;

CanonSummary Canonicalize(const PathSummary& s, const StringPool& pool) {
  std::vector<std::string> labels(s.num_paths());
  CanonSummary out;
  for (size_t id = 1; id < s.num_paths(); ++id) {
    const PathNode& p = s.path(static_cast<int32_t>(id));
    labels[id] = labels[static_cast<size_t>(p.parent)] + "/" +
                 (p.is_attr ? "@" : "") + std::string(pool.Get(p.tag));
    if (p.count == 0) continue;
    size_t len;
    const Pre* part = s.partition(static_cast<int32_t>(id), &len);
    out[labels[id]] = {p.count, std::vector<Pre>(part, part + len)};
  }
  return out;
}

void ExpectSummaryRepaired(const PathSummary& got, const PathSummary& want,
                           const StringPool& pool) {
  EXPECT_EQ(Canonicalize(got, pool), Canonicalize(want, pool));
}

// Run `u` against `base` both ways and check everything. Returns the
// spliced doc for follow-up assertions.
SplicedDoc CheckUpdate(const Document& base, StringPool* pool,
                       const NodeUpdate& u) {
  auto spliced = ApplyNodeUpdate(base, pool, u);
  EXPECT_TRUE(spliced.ok()) << spliced.status().message();
  if (!spliced.ok()) return {};
  auto oracle = NaiveApply(base, pool, u);
  EXPECT_TRUE(oracle.ok()) << oracle.status().message();
  if (!oracle.ok()) return {};

  std::string err;
  EXPECT_TRUE(spliced->doc.Validate(&err)) << err;
  ExpectSameColumns(spliced->doc, *oracle);
  EXPECT_EQ(SerializeDocument(spliced->doc, *pool),
            SerializeDocument(*oracle, *pool));
  if (base.stats() != nullptr) {
    EXPECT_NE(spliced->doc.stats(), nullptr);
    if (spliced->doc.stats() != nullptr) {
      ExpectStatsRepaired(*spliced->doc.stats(), ComputeDocStats(*oracle));
    }
  }
  if (base.summary() != nullptr) {
    EXPECT_NE(spliced->doc.summary(), nullptr);
    if (spliced->doc.summary() != nullptr) {
      ExpectSummaryRepaired(*spliced->doc.summary(),
                            BuildPathSummary(*oracle), *pool);
    }
  }
  return std::move(*spliced);
}

// A small document exercising every node kind, repeated tags, mixed
// content and multi-attribute elements. Registered through a Database
// so stats and summary are attached.
Document MakeBase(StringPool* pool) {
  TreeBuilder b(pool);
  b.StartElem("site");
  b.Attr("id", "s1");
  b.StartElem("regions");
  b.StartElem("item");
  b.Attr("id", "i1");
  b.Attr("featured", "yes");
  b.StartElem("name");
  b.Text("chair");
  b.EndElem();
  b.StartElem("price");
  b.Text("10");
  b.EndElem();
  b.EndElem();
  b.StartElem("item");
  b.Attr("id", "i2");
  b.StartElem("name");
  b.Text("table");
  b.EndElem();
  b.Comment("imported");
  b.EndElem();
  b.EndElem();
  b.StartElem("people");
  b.StartElem("person");
  b.Attr("id", "p1");
  b.Text("alice");
  b.Pi("render", "bold");
  b.EndElem();
  b.EndElem();
  b.EndElem();
  auto doc = std::move(b).Finish();
  EXPECT_TRUE(doc.ok());
  return std::move(*doc);
}

Document MakeRegisteredBase(Database* db) {
  // Registration attaches stats and path summary; copy the published
  // snapshot so updates run off a fully annotated document.
  FragId id = db->AddDocument("base.xml", MakeBase(db->pool()));
  return db->doc(id);
}

Pre FindFirst(const Document& d, NodeKind k, const StringPool& pool,
              std::string_view prop_name = {}) {
  for (Pre v = 0; v < d.num_nodes(); ++v) {
    if (d.kind(v) != k) continue;
    if (!prop_name.empty() && pool.Get(d.prop(v)) != prop_name) continue;
    return v;
  }
  ADD_FAILURE() << "node not found";
  return 0;
}

// --- tests ----------------------------------------------------------------

TEST(UpdateTest, InsertChildAppend) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kInsertChild;
  u.target = FindFirst(base, NodeKind::kElem, *db.pool(), "regions");
  u.xml = "<item id=\"i3\"><name>lamp</name><price>4</price></item>";
  SplicedDoc sp = CheckUpdate(base, db.pool(), u);
  EXPECT_TRUE(sp.structural);
  EXPECT_EQ(sp.removed, 0u);
  EXPECT_GT(sp.inserted, 0u);
}

TEST(UpdateTest, InsertChildAtPositionZero) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kInsertChild;
  u.target = FindFirst(base, NodeKind::kElem, *db.pool(), "site");
  u.position = 0;
  u.xml = "<header>v2</header>";
  CheckUpdate(base, db.pool(), u);
}

TEST(UpdateTest, InsertChildMidPosition) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kInsertChild;
  u.target = FindFirst(base, NodeKind::kElem, *db.pool(), "item");
  u.position = 1;
  u.xml = "<desc>solid <b>oak</b> legs</desc>";
  CheckUpdate(base, db.pool(), u);
}

TEST(UpdateTest, InsertNewTagMintsSummaryPath) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kInsertChild;
  u.target = FindFirst(base, NodeKind::kElem, *db.pool(), "person");
  u.xml = "<watchlist kind=\"open\"><watch/></watchlist>";
  SplicedDoc sp = CheckUpdate(base, db.pool(), u);
  // The minted paths must be resolvable by tag.
  const PathSummary* s = sp.doc.summary();
  ASSERT_NE(s, nullptr);
  StrId watch = db.pool()->Intern("watchlist");
  ASSERT_NE(s->ElementPathsByTag(watch), nullptr);
}

TEST(UpdateTest, DeleteElementSubtree) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kDelete;
  u.target = FindFirst(base, NodeKind::kElem, *db.pool(), "item");
  SplicedDoc sp = CheckUpdate(base, db.pool(), u);
  EXPECT_TRUE(sp.structural);
  EXPECT_GT(sp.removed, 1u);
  EXPECT_EQ(sp.inserted, 0u);
}

TEST(UpdateTest, DeleteTextAndCommentAndAttr) {
  Database db;
  for (NodeKind k : {NodeKind::kText, NodeKind::kComment, NodeKind::kAttr}) {
    Document base = MakeRegisteredBase(&db);
    NodeUpdate u;
    u.kind = NodeUpdate::Kind::kDelete;
    u.target = FindFirst(base, k, *db.pool());
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(k)));
    SplicedDoc sp = CheckUpdate(base, db.pool(), u);
    EXPECT_EQ(sp.removed, 1u);
  }
}

TEST(UpdateTest, ReplaceLeafValueIsContentOnly) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  for (NodeKind k : {NodeKind::kText, NodeKind::kAttr, NodeKind::kComment,
                     NodeKind::kPi}) {
    NodeUpdate u;
    u.kind = NodeUpdate::Kind::kReplaceValue;
    u.target = FindFirst(base, k, *db.pool());
    u.value = "updated-value";
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(k)));
    SplicedDoc sp = CheckUpdate(base, db.pool(), u);
    EXPECT_FALSE(sp.structural);
    EXPECT_EQ(sp.removed, 1u);
    EXPECT_EQ(sp.inserted, 1u);
    // Content-only: structure columns bit-identical, summary SHARED.
    EXPECT_EQ(sp.doc.sizes(), base.sizes());
    EXPECT_EQ(sp.doc.levels(), base.levels());
    EXPECT_EQ(sp.doc.kinds(), base.kinds());
    EXPECT_EQ(sp.doc.props(), base.props());
    EXPECT_EQ(sp.doc.summary(), base.summary())
        << "content-only update must share the base summary object";
  }
}

TEST(UpdateTest, ReplaceLeafValueSharesBaseStats) {
  // The stats describe structure only, so a content-only update
  // publishes the base's stats object itself.
  Database db;
  Document base = MakeRegisteredBase(&db);
  ASSERT_NE(base.stats(), nullptr);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kReplaceValue;
  u.target = FindFirst(base, NodeKind::kText, *db.pool());
  u.value = "updated-value";
  SplicedDoc sp = CheckUpdate(base, db.pool(), u);
  EXPECT_FALSE(sp.structural);
  EXPECT_EQ(sp.doc.stats(), base.stats())
      << "content-only update must share the base stats object";
}

TEST(UpdateTest, ReplaceElementValueIsStructural) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kReplaceValue;
  u.target = FindFirst(base, NodeKind::kElem, *db.pool(), "item");
  u.value = "gone";
  SplicedDoc sp = CheckUpdate(base, db.pool(), u);
  EXPECT_TRUE(sp.structural);
  EXPECT_EQ(sp.inserted, 1u);
  // Attributes of the element must survive.
  Pre t = FindFirst(sp.doc, NodeKind::kElem, *db.pool(), "item");
  EXPECT_TRUE(sp.doc.IsAttr(t + 1));
}

TEST(UpdateTest, ReplaceElementValueEmptyClearsContent) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kReplaceValue;
  u.target = FindFirst(base, NodeKind::kElem, *db.pool(), "name");
  u.value.clear();
  SplicedDoc sp = CheckUpdate(base, db.pool(), u);
  EXPECT_EQ(sp.inserted, 0u);
}

TEST(UpdateTest, ErrorCases) {
  Database db;
  Document base = MakeRegisteredBase(&db);
  StringPool* pool = db.pool();

  NodeUpdate u;
  u.kind = NodeUpdate::Kind::kDelete;
  u.target = base.num_nodes() + 7;
  EXPECT_FALSE(ApplyNodeUpdate(base, pool, u).ok()) << "out of range";

  u.target = 0;
  EXPECT_FALSE(ApplyNodeUpdate(base, pool, u).ok()) << "delete doc node";

  u.target = 1;  // the only root element
  EXPECT_FALSE(ApplyNodeUpdate(base, pool, u).ok()) << "only root";

  u.kind = NodeUpdate::Kind::kReplaceValue;
  u.target = 0;
  EXPECT_FALSE(ApplyNodeUpdate(base, pool, u).ok()) << "doc node value";

  u.kind = NodeUpdate::Kind::kInsertChild;
  u.target = FindFirst(base, NodeKind::kText, *pool);
  u.xml = "<x/>";
  EXPECT_FALSE(ApplyNodeUpdate(base, pool, u).ok()) << "insert into text";

  u.target = 1;
  u.xml = "<broken";
  EXPECT_FALSE(ApplyNodeUpdate(base, pool, u).ok()) << "malformed fragment";
}

TEST(UpdateTest, RandomizedAgainstOracle) {
  Database db;
  StringPool* pool = db.pool();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Document cur = MakeRegisteredBase(&db);
    for (int step = 0; step < 25; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      NodeUpdate u;
      Pre t = static_cast<Pre>(rng.Below(cur.num_nodes()));
      u.target = t;
      switch (rng.Below(3)) {
        case 0:
          u.kind = NodeUpdate::Kind::kInsertChild;
          u.position = rng.Chance(0.5)
                           ? -1
                           : static_cast<int32_t>(rng.Below(4));
          u.xml = rng.Chance(0.5)
                      ? "<extra n=\"" + std::to_string(step) + "\">x</extra>"
                      : "<note>n" + std::to_string(step) + "</note>";
          break;
        case 1:
          u.kind = NodeUpdate::Kind::kDelete;
          break;
        case 2:
          u.kind = NodeUpdate::Kind::kReplaceValue;
          u.value = "v" + std::to_string(step);
          break;
      }
      // The doc node is never a legal target, the only root element
      // cannot be deleted, and inserts require an element target; every
      // other draw must succeed.
      bool expect_ok =
          u.target != 0 &&
          !(u.kind == NodeUpdate::Kind::kDelete && u.target == 1) &&
          !(u.kind == NodeUpdate::Kind::kInsertChild &&
            cur.kind(u.target) != NodeKind::kElem);
      auto spliced = ApplyNodeUpdate(cur, pool, u);
      ASSERT_EQ(spliced.ok(), expect_ok) << spliced.status().message();
      if (!expect_ok) continue;
      auto oracle = NaiveApply(cur, pool, u);
      ASSERT_TRUE(oracle.ok()) << oracle.status().message();
      std::string err;
      ASSERT_TRUE(spliced->doc.Validate(&err)) << err;
      ExpectSameColumns(spliced->doc, *oracle);
      ASSERT_NE(spliced->doc.stats(), nullptr);
      ExpectStatsRepaired(*spliced->doc.stats(), ComputeDocStats(*oracle));
      ASSERT_NE(spliced->doc.summary(), nullptr);
      ExpectSummaryRepaired(*spliced->doc.summary(),
                            BuildPathSummary(*oracle), *pool);
      cur = std::move(spliced->doc);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- database-level -------------------------------------------------------

TEST(UpdateTest, ApplyUpdateVersionBookkeeping) {
  Database db;
  ASSERT_TRUE(db.LoadXml("d.xml", "<a><b id=\"1\">x</b><c/></a>").ok());
  auto v0 = db.Versions();
  ASSERT_EQ(v0.docs.size(), 1u);
  EXPECT_EQ(v0.docs[0].structure, v0.docs[0].content);

  // Content-only update: structure version stays, content moves, the
  // name is rebound to a fresh frag.
  NodeUpdate cu;
  cu.kind = NodeUpdate::Kind::kReplaceValue;
  FragId f0 = *db.FindDocument("d.xml");
  cu.target = FindFirst(db.doc(f0), NodeKind::kText, *db.pool());
  cu.value = "y";
  auto r1 = ApplyUpdate(&db, "d.xml", cu);
  ASSERT_TRUE(r1.ok()) << r1.status().message();
  EXPECT_FALSE(r1->structural);
  EXPECT_NE(r1->frag, f0);
  auto v1 = db.Versions();
  EXPECT_EQ(v1.docs[0].structure, v0.docs[0].structure);
  EXPECT_GT(v1.docs[0].content, v0.docs[0].content);
  EXPECT_EQ(v1.docs[0].frag, r1->frag);

  // Structural update: both move.
  NodeUpdate su;
  su.kind = NodeUpdate::Kind::kInsertChild;
  su.target = 1;
  su.xml = "<d/>";
  auto r2 = ApplyUpdate(&db, "d.xml", su);
  ASSERT_TRUE(r2.ok()) << r2.status().message();
  EXPECT_TRUE(r2->structural);
  auto v2 = db.Versions();
  EXPECT_GT(v2.docs[0].structure, v1.docs[0].structure);
  EXPECT_GT(v2.docs[0].content, v1.docs[0].content);
  EXPECT_EQ(r2->nodes_after, r2->nodes_before + 1);

  // Snapshot isolation: the original frag still serializes the original
  // content for in-flight readers.
  EXPECT_NE(SerializeDocument(db.doc(f0), *db.pool()).find(">x<"),
            std::string::npos);
  EXPECT_EQ(ApplyUpdate(&db, "missing.xml", cu).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace pathfinder::xml
