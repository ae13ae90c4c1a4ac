// Randomized update model checking against a full re-shred oracle.
//
// Two databases run the same interleaved update/query workload over an
// XMark document:
//  * the SUBJECT applies every update through xml::ApplyUpdate — the
//    incremental path: COW column splice, in-place stats and
//    path-summary repair, per-name version bookkeeping, cache
//    repair/invalidation in the shared query cache of a persistent
//    Pathfinder;
//  * the ORACLE re-emits the updated tree from scratch through
//    TreeBuilder (an independent re-implementation of the update
//    semantics) and re-registers it, so its stats, summary and every
//    derived structure are rebuilt by the ordinary shred path.
// After every mutation the structure columns must be identical; queries
// (XMark 1-20 plus staircase axis shapes, cycling 1/2/7 worker threads
// and the PF_PATHSUM / cache / cache-repair knobs) must
// serialize byte-identically on both; each seed ends with the full
// 20-query XMark sweep.

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/pathfinder.h"
#include "base/rng.h"
#include "xml/database.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tree_builder.h"
#include "xml/update.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace pathfinder {
namespace {

using xml::Document;
using xml::NodeKind;
using xml::NodeUpdate;
using xml::Pre;

// --- re-shred oracle (independent of xml/update.cc) -----------------------

void EmitSubtree(const Document& doc, const StringPool& pool, Pre v,
                 xml::TreeBuilder* b);

void EmitChildrenVerbatim(const Document& doc, const StringPool& pool, Pre v,
                          xml::TreeBuilder* b) {
  Pre end = v + doc.size(v);
  Pre w = v + 1;
  while (w <= end && doc.IsAttr(w)) {
    b->Attr(pool.Get(doc.prop(w)), pool.Get(doc.value(w)));
    ++w;
  }
  while (w <= end) {
    EmitSubtree(doc, pool, w, b);
    w += doc.size(w) + 1;
  }
}

void EmitSubtree(const Document& doc, const StringPool& pool, Pre v,
                 xml::TreeBuilder* b) {
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

struct NaiveUpdater {
  const Document& base;
  StringPool* pool;
  const NodeUpdate& u;
  const Document* frag = nullptr;

  void EmitNode(Pre v, xml::TreeBuilder* b) const {
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

  void EmitElemContent(Pre v, xml::TreeBuilder* b) const {
    Pre end = v + base.size(v);
    Pre w = v + 1;
    while (w <= end && base.IsAttr(w)) {
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
      if (!u.value.empty()) b->Text(u.value);
      return;
    }
    bool inserting = v == u.target && u.kind == NodeUpdate::Kind::kInsertChild;
    int32_t idx = 0;
    while (w <= end) {
      if (inserting && u.position >= 0 && idx == u.position) {
        EmitChildrenVerbatim(*frag, *pool, 0, b);
        inserting = false;
      }
      EmitNode(w, b);
      w += base.size(w) + 1;
      ++idx;
    }
    if (inserting) EmitChildrenVerbatim(*frag, *pool, 0, b);
  }
};

Result<Document> NaiveApply(const Document& base, StringPool* pool,
                            const NodeUpdate& u) {
  Document frag;
  NaiveUpdater n{base, pool, u};
  if (u.kind == NodeUpdate::Kind::kInsertChild) {
    PF_ASSIGN_OR_RETURN(frag, xml::ParseXml(u.xml, pool));
    n.frag = &frag;
  }
  xml::TreeBuilder b(pool);
  Pre end = base.size(0);
  Pre w = 1;
  while (w <= end) {
    n.EmitNode(w, &b);
    w += base.size(w) + 1;
  }
  return std::move(b).Finish();
}

// --- workload -------------------------------------------------------------

// XMark-flavored insert fragments (one root element each; attributes,
// nesting, mixed content, a comment).
const char* kFragments[] = {
    "<emph>seized</emph>",
    "<keyword>gold</keyword>",
    "<listitem><text>fresh stock and spare parts</text></listitem>",
    "<watch open_auction=\"7\"/>",
    "<annotation><description><text>relisted after "
    "<emph>return</emph></text></description></annotation>",
    "<incategory category=\"category3\"/>",
    "<status code=\"ok\">live<!--checked--></status>",
};

// Staircase-join axis shapes over the XMark schema (child, descendant,
// attribute, ancestor, following-sibling; empty results are fine — the
// two engines must agree on those bytes too).
const char* kAxisShapes[] = {
    "/site/regions",
    "/site/people/person/name",
    "//item/name",
    "//keyword",
    "//person/@id",
    "//open_auction/bidder",
    "//listitem//text",
    "count(//item)",
    "count(//text)",
    "//name/ancestor::person",
    "//item/following-sibling::*",
    "//person[exists(@id)]/name",
};

const int kThreads[] = {1, 2, 7};

// Subject-side knob mask m (0-3): default / no path summary / caches
// off / cache repair off (every content-only update evicts instead of
// repairs). Results must be identical under all.
QueryOptions SubjectOptions(int m, int threads) {
  QueryOptions o;
  o.context_doc = "x.xml";
  o.num_threads = threads;
  switch (m) {
    case 1:
      o.path_summary = 0;
      break;
    case 2:
      o.plan_cache = 0;
      o.subplan_cache = 0;
      break;
    case 3:
      o.cache_repair = 0;
      break;
    default:
      break;
  }
  return o;
}

class UpdateModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdateModelTest, IncrementalMaintenanceMatchesReShred) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  xml::Database sdb;  // subject: incremental maintenance
  xml::Database odb;  // oracle: full re-shred per update

  auto sdoc = xmark::GenerateXMark(0.002, seed, sdb.pool());
  ASSERT_TRUE(sdoc.ok()) << sdoc.status().ToString();
  auto odoc = xmark::GenerateXMark(0.002, seed, odb.pool());
  ASSERT_TRUE(odoc.ok());
  xml::FragId sfrag = sdb.AddDocument("x.xml", std::move(*sdoc));
  xml::FragId ofrag = odb.AddDocument("x.xml", std::move(*odoc));

  // Persistent engines: the subject's shared cache lives across the
  // whole workload, so updates exercise repair and invalidation against
  // genuinely warm entries.
  Pathfinder spf(&sdb);
  Pathfinder opf(&odb);

  int qc = 0;
  for (int op = 0; op < 200; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const Document& cur = sdb.doc(sfrag);
    const Pre n = cur.num_nodes();

    if (rng.Chance(0.4)) {
      // --- query op ---
      std::string q = rng.Chance(0.5)
                          ? kAxisShapes[rng.Below(std::size(kAxisShapes))]
                          : xmark::GetXMarkQuery(1 + qc % 20).text;
      SCOPED_TRACE(q);
      auto sr = spf.Run(q, SubjectOptions(qc % 4, kThreads[qc % 3]));
      ASSERT_TRUE(sr.ok()) << sr.status().ToString();
      auto ss = sr->Serialize();
      ASSERT_TRUE(ss.ok());
      QueryOptions oo;
      oo.context_doc = "x.xml";
      oo.num_threads = 1;
      auto orr = opf.Run(q, oo);
      ASSERT_TRUE(orr.ok()) << orr.status().ToString();
      auto os = orr->Serialize();
      ASSERT_TRUE(os.ok());
      ASSERT_TRUE(*ss == *os)
          << "result diverged (" << ss->size() << " vs " << os->size()
          << " bytes, mask " << qc % 4 << ", threads " << kThreads[qc % 3]
          << ")";
      ++qc;
      continue;
    }

    // --- update op ---
    NodeUpdate u;
    u.target = static_cast<Pre>(rng.Below(n));
    // Below ~100 nodes the doc has been churned to a stub; only insert.
    int k = n < 100 ? 0 : static_cast<int>(rng.Below(3));
    switch (k) {
      case 0:
        u.kind = NodeUpdate::Kind::kInsertChild;
        u.position =
            rng.Chance(0.5) ? -1 : static_cast<int32_t>(rng.Below(5));
        u.xml = kFragments[rng.Below(std::size(kFragments))];
        break;
      case 1:
        u.kind = NodeUpdate::Kind::kDelete;
        break;
      default:
        u.kind = NodeUpdate::Kind::kReplaceValue;
        // Numeric-castable: XMark queries atomize increase/price/income
        // contents to xs:double, and the replaced leaf can be any of
        // them.
        u.value = std::to_string(op) + ".5";
        break;
    }
    bool expect_ok =
        u.target != 0 &&
        !(u.kind == NodeUpdate::Kind::kDelete && u.target == 1) &&
        !(u.kind == NodeUpdate::Kind::kInsertChild &&
          cur.kind(u.target) != NodeKind::kElem);

    auto vb = sdb.Versions();
    auto r = xml::ApplyUpdate(&sdb, "x.xml", u);
    ASSERT_EQ(r.ok(), expect_ok) << r.status().message();
    if (!expect_ok) continue;
    EXPECT_EQ(r->structural,
              u.kind != NodeUpdate::Kind::kReplaceValue ||
                  cur.kind(u.target) == NodeKind::kElem);

    // Version bookkeeping: content moves always, structure iff
    // structural; the name is rebound to the fresh frag.
    auto va = sdb.Versions();
    ASSERT_EQ(va.docs.size(), 1u);
    EXPECT_GT(va.docs[0].content, vb.docs[0].content);
    if (r->structural) {
      EXPECT_GT(va.docs[0].structure, vb.docs[0].structure);
    } else {
      EXPECT_EQ(va.docs[0].structure, vb.docs[0].structure);
    }
    EXPECT_EQ(va.docs[0].frag, r->frag);

    // Oracle: independent re-emission + full re-shred (AddDocument
    // recomputes stats and summary from scratch).
    auto nd = NaiveApply(odb.doc(ofrag), odb.pool(), u);
    ASSERT_TRUE(nd.ok()) << nd.status().ToString();
    ofrag = odb.AddDocument("x.xml", std::move(*nd));
    sfrag = r->frag;

    const Document& sd = sdb.doc(sfrag);
    const Document& od = odb.doc(ofrag);
    ASSERT_EQ(sd.num_nodes(), od.num_nodes());
    ASSERT_EQ(sd.sizes(), od.sizes());
    ASSERT_EQ(sd.levels(), od.levels());
    ASSERT_EQ(sd.kinds(), od.kinds());
    std::string err;
    ASSERT_TRUE(sd.Validate(&err)) << err;
    if (rng.Chance(0.15)) {
      // Full content check (props/values live in different pools, so
      // compare through serialization).
      std::string sx = SerializeDocument(sd, *sdb.pool());
      std::string ox = SerializeDocument(od, *odb.pool());
      ASSERT_TRUE(sx == ox) << "serialized documents diverged ("
                            << sx.size() << " vs " << ox.size() << " bytes)";
    }
  }

  // Final state: the full 20-query XMark sweep, byte-identical, across
  // the thread and knob cycles.
  for (int qn = 1; qn <= 20; ++qn) {
    const auto& xq = xmark::GetXMarkQuery(qn);
    SCOPED_TRACE("XMark Q" + std::to_string(qn));
    auto sr = spf.Run(xq.text, SubjectOptions(qn % 4, kThreads[qn % 3]));
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    auto ss = sr->Serialize();
    ASSERT_TRUE(ss.ok());
    QueryOptions oo;
    oo.context_doc = "x.xml";
    oo.num_threads = 1;
    auto orr = opf.Run(xq.text, oo);
    ASSERT_TRUE(orr.ok()) << orr.status().ToString();
    auto os = orr->Serialize();
    ASSERT_TRUE(os.ok());
    ASSERT_TRUE(*ss == *os)
        << "Q" << qn << " diverged (" << ss->size() << " vs " << os->size()
        << " bytes)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateModelTest,
                         ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace pathfinder
