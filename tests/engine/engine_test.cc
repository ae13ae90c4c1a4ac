#include <gtest/gtest.h>

#include "algebra/op.h"
#include "api/pathfinder.h"
#include "engine/cache.h"
#include "engine/executor.h"
#include "engine/node_build.h"
#include "xml/serializer.h"
#include "xml/tree_builder.h"

namespace pathfinder::engine {
namespace {

/// Column id of `name` (tests name columns by string).
bat::ColId C(std::string_view name) { return bat::InternCol(name); }

namespace alg = pathfinder::algebra;
using alg::OpPtr;
using bat::ColType;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.LoadXml("t.xml", "<r><a>1</a><b x=\"7\">2</b><a>3</a></r>");
    ASSERT_TRUE(r.ok());
    ctx_ = std::make_unique<QueryContext>(&db_);
  }

  bat::Table Run(const OpPtr& plan) {
    auto t = Execute(plan, ctx_.get());
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : bat::Table{};
  }

  OpPtr Lit(std::vector<std::vector<Item>> rows) {
    return alg::LitTable({C("iter"), C("pos"), C("item")},
                         {ColType::kInt, ColType::kInt, ColType::kItem},
                         std::move(rows));
  }

  Item Str(const char* s) { return Item::Str(db_.pool()->Intern(s)); }
  StrId Id(const char* s) { return db_.pool()->Intern(s); }
  std::string_view StringOf(const Item& node) {
    return db_.pool()->Get(NodeStringId(ctx_.get(), node));
  }

  xml::Database db_;
  std::unique_ptr<QueryContext> ctx_;
};

TEST_F(EngineTest, LitTableAndAttach) {
  OpPtr plan = alg::Attach(Lit({{Item::Int(1), Item::Int(1), Item::Int(5)}}),
                           C("extra"), ColType::kBool, Item::Bool(true));
  bat::Table t = Run(plan);
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.GetCol(C("extra")).value()->bools()[0], 1);
}

TEST_F(EngineTest, SelectFun2) {
  OpPtr lit = Lit({{Item::Int(1), Item::Int(1), Item::Int(5)},
                   {Item::Int(1), Item::Int(2), Item::Int(9)}});
  OpPtr threshold =
      alg::Attach(lit, C("lim"), ColType::kItem, Item::Int(6));
  OpPtr cmp = alg::MapFun2(threshold, alg::Fun2::kCmpGt, C("item"),
                           C("lim"), C("b"));
  bat::Table t = Run(alg::Select(cmp, C("b")));
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.GetCol(C("item")).value()->items()[0].AsInt(), 9);
}

TEST_F(EngineTest, StepDescendantFromRoot) {
  OpPtr ctxt = alg::LitTable(
      {C("iter"), C("item")}, {ColType::kInt, ColType::kItem},
      {{Item::Int(1), Item::Node(0, 0)}});
  OpPtr step = alg::Step(ctxt, accel::Axis::kDescendant,
                         accel::NodeTest::Name(db_.pool()->Intern("a")));
  bat::Table t = Run(step);
  ASSERT_EQ(t.rows(), 2u);
  // scj output is iter-grouped in document order.
  EXPECT_LT(t.GetCol(C("item")).value()->items()[0].NodePre(),
            t.GetCol(C("item")).value()->items()[1].NodePre());
}

TEST_F(EngineTest, StepOnAtomicIsTypeError) {
  OpPtr ctxt = alg::LitTable({C("iter"), C("item")},
                             {ColType::kInt, ColType::kItem},
                             {{Item::Int(1), Item::Int(42)}});
  OpPtr step =
      alg::Step(ctxt, accel::Axis::kChild, accel::NodeTest::AnyKind());
  auto r = Execute(step, ctx_.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST_F(EngineTest, StepStaircaseVsNaiveAgree) {
  OpPtr ctxt = alg::LitTable(
      {C("iter"), C("item")}, {ColType::kInt, ColType::kItem},
      {{Item::Int(1), Item::Node(0, 1)},
       {Item::Int(2), Item::Node(0, 0)}});
  OpPtr step = alg::Step(ctxt, accel::Axis::kDescendant,
                         accel::NodeTest::AnyKind());
  QueryContext c1(&db_), c2(&db_);
  c2.use_staircase = false;
  auto t1 = Execute(step, &c1);
  auto t2 = Execute(step, &c2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_EQ(t1->rows(), t2->rows());
  for (size_t i = 0; i < t1->rows(); ++i) {
    EXPECT_EQ(t1->GetCol(C("item")).value()->items()[i],
              t2->GetCol(C("item")).value()->items()[i]);
  }
  EXPECT_GT(c1.scj_stats.results, 0u);
  EXPECT_EQ(c2.scj_stats.results, 0u);  // naive path records no scj stats
}

TEST_F(EngineTest, DocRootResolvesByName) {
  OpPtr names = Lit({{Item::Int(1), Item::Int(1), Str("t.xml")}});
  bat::Table t = Run(alg::DocRoot(names));
  ASSERT_EQ(t.rows(), 1u);
  Item root = t.GetCol(C("item")).value()->items()[0];
  EXPECT_EQ(root.NodeFrag(), 0u);
  EXPECT_EQ(root.NodePre(), 0u);
}

TEST_F(EngineTest, DocRootUnknownNameFails) {
  OpPtr names = Lit({{Item::Int(1), Item::Int(1), Str("nope.xml")}});
  EXPECT_FALSE(Execute(alg::DocRoot(names), ctx_.get()).ok());
}

TEST_F(EngineTest, ElementConstructionCopiesAndMerges) {
  // <out>atomic 5 and node <a>1</a></out>
  OpPtr name = Lit({{Item::Int(1), Item::Int(1), Str("out")}});
  OpPtr content = Lit({{Item::Int(1), Item::Int(1), Item::Int(5)},
                       {Item::Int(1), Item::Int(2), Str("x")},
                       {Item::Int(1), Item::Int(3), Item::Node(0, 2)}});
  bat::Table t = Run(alg::ElemConstr(name, content));
  ASSERT_EQ(t.rows(), 1u);
  Item node = t.GetCol(C("item")).value()->items()[0];
  EXPECT_TRUE(node.IsNode());
  std::string xml = xml::SerializeSubtree(ctx_->doc(node.NodeFrag()),
                                          node.NodePre(), *db_.pool());
  EXPECT_EQ(xml, "<out>5 x<a>1</a></out>");
}

TEST_F(EngineTest, ElementConstructionHoistsAttributes) {
  OpPtr name = Lit({{Item::Int(1), Item::Int(1), Str("e")}});
  // Attribute built by an AttrConstr subplan.
  OpPtr attr_content = Lit({{Item::Int(1), Item::Int(1), Str("v")}});
  OpPtr attr = alg::AttrConstr(attr_content, db_.pool()->Intern("k"));
  OpPtr attr_ipi = alg::Project(
      alg::Attach(attr, C("pos"), ColType::kInt, Item::Int(1)),
      {{C("iter"), C("iter")}, {C("pos"), C("pos")}, {C("item"), C("item")}});
  bat::Table t = Run(alg::ElemConstr(name, attr_ipi));
  Item node = t.GetCol(C("item")).value()->items()[0];
  std::string xml = xml::SerializeSubtree(ctx_->doc(node.NodeFrag()),
                                          node.NodePre(), *db_.pool());
  EXPECT_EQ(xml, "<e k=\"v\"/>");
}

TEST_F(EngineTest, TextConstructionJoinsWithSpaces) {
  OpPtr content = Lit({{Item::Int(1), Item::Int(1), Str("a")},
                       {Item::Int(1), Item::Int(2), Str("b")}});
  bat::Table t = Run(alg::TextConstr(content));
  Item node = t.GetCol(C("item")).value()->items()[0];
  EXPECT_EQ(StringOf(node), "a b");
}

TEST_F(EngineTest, Fun1DataAtomizesNodes) {
  OpPtr nodes = Lit({{Item::Int(1), Item::Int(1), Item::Node(0, 2)}});
  bat::Table t = Run(alg::MapFun1(nodes, alg::Fun1::kData, C("item"), C("d")));
  Item d = t.GetCol(C("d")).value()->items()[0];
  EXPECT_EQ(d.kind, ItemKind::kUntyped);
  EXPECT_EQ(db_.pool()->Get(d.AsStr()), "1");
}

TEST_F(EngineTest, Fun2DivByZeroIsError) {
  OpPtr lit = Lit({{Item::Int(1), Item::Int(1), Item::Int(1)}});
  OpPtr z = alg::Attach(lit, C("zero"), ColType::kItem, Item::Int(0));
  auto r = Execute(
      alg::MapFun2(z, alg::Fun2::kDiv, C("item"), C("zero"), C("q")),
      ctx_.get());
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineTest, ArithmeticIntPreservation) {
  OpPtr lit = Lit({{Item::Int(1), Item::Int(1), Item::Int(7)}});
  OpPtr v = alg::Attach(lit, C("three"), ColType::kItem, Item::Int(3));
  bat::Table mul =
      Run(alg::MapFun2(v, alg::Fun2::kMul, C("item"), C("three"), C("p")));
  EXPECT_EQ(mul.GetCol(C("p")).value()->items()[0].kind, ItemKind::kInt);
  bat::Table div =
      Run(alg::MapFun2(v, alg::Fun2::kDiv, C("item"), C("three"), C("q")));
  EXPECT_EQ(div.GetCol(C("q")).value()->items()[0].kind, ItemKind::kDbl);
  bat::Table idiv =
      Run(alg::MapFun2(v, alg::Fun2::kIdiv, C("item"), C("three"), C("r")));
  EXPECT_EQ(idiv.GetCol(C("r")).value()->items()[0].AsInt(), 2);
  bat::Table mod =
      Run(alg::MapFun2(v, alg::Fun2::kMod, C("item"), C("three"), C("s")));
  EXPECT_EQ(mod.GetCol(C("s")).value()->items()[0].AsInt(), 1);
}

TEST_F(EngineTest, SerializeSortsByIterPos) {
  OpPtr lit = Lit({{Item::Int(2), Item::Int(1), Item::Int(30)},
                   {Item::Int(1), Item::Int(2), Item::Int(20)},
                   {Item::Int(1), Item::Int(1), Item::Int(10)}});
  bat::Table t = Run(alg::Serialize(lit));
  auto items = t.GetCol(C("item")).value()->items();
  EXPECT_EQ(items[0].AsInt(), 10);
  EXPECT_EQ(items[1].AsInt(), 20);
  EXPECT_EQ(items[2].AsInt(), 30);
}

TEST_F(EngineTest, SharedSubplanEvaluatedOnce) {
  // A fragment-constructing subplan shared by two parents must run once:
  // otherwise two fragments appear.
  OpPtr name = Lit({{Item::Int(1), Item::Int(1), Str("n")}});
  OpPtr elem = alg::ElemConstr(name, alg::EmptySeq());
  OpPtr with_pos = alg::Attach(elem, C("pos"), ColType::kInt, Item::Int(1));
  OpPtr ipi = alg::Project(with_pos, {{C("iter"), C("iter")},
                                     {C("pos"), C("pos")},
                                     {C("item"), C("item")}});
  OpPtr ord0 = alg::Attach(ipi, C("ord"), ColType::kInt, Item::Int(0));
  OpPtr ord1 = alg::Attach(ipi, C("ord"), ColType::kInt, Item::Int(1));
  Run(alg::DisjointUnion(ord0, ord1));
  EXPECT_EQ(ctx_->num_constructed(), 1u);
}

// --- releasing intermediates ----------------------------------------------

TEST_F(EngineTest, NodeReadByTwoDistantParentsLivesUntilTheLast) {
  // `x` feeds the first link of an 18-operator chain and, last in the
  // post-order, the join's right input: its table must outlive the
  // chain although the chain's first link is long done with it.
  OpPtr x = Lit({{Item::Int(1), Item::Int(1), Item::Int(10)},
                 {Item::Int(2), Item::Int(1), Item::Int(20)},
                 {Item::Int(3), Item::Int(1), Item::Int(30)}});
  OpPtr chain = x;
  for (int k = 0; k < 6; ++k) {
    OpPtr one = alg::Attach(chain, C("one"), ColType::kItem, Item::Int(1));
    OpPtr sum = alg::MapFun2(one, alg::Fun2::kAdd, C("item"), C("one"),
                             C("sum"));
    chain = alg::Project(sum, {{C("iter"), C("iter")},
                               {C("pos"), C("pos")},
                               {C("item"), C("sum")}});
  }
  OpPtr right =
      alg::Project(x, {{C("iter1"), C("iter")}, {C("item1"), C("item")}});
  bat::Table t = Run(alg::EquiJoin(chain, right, C("iter"), C("iter1")));
  ASSERT_EQ(t.rows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const int64_t v = 10 * static_cast<int64_t>(i + 1);
    EXPECT_EQ(t.GetCol(C("iter1")).value()->ints()[i],
              static_cast<int64_t>(i + 1));
    EXPECT_EQ(t.GetCol(C("item")).value()->items()[i].AsInt(), v + 6);
    EXPECT_EQ(t.GetCol(C("item1")).value()->items()[i].AsInt(), v);
  }
}

class EngineCacheTest : public EngineTest {
 protected:
  // Runs a freshly built `plan` against cache_, wired as Pathfinder::Run
  // wires a query: sync, annotate the candidates, execute.
  Result<bat::Table> RunCached(const OpPtr& plan, QueryContext* ctx) {
    xml::Database::DocVersions v = db_.Versions();
    cache_.BeginQuery(v.generation, v.docs, /*repair=*/true);
    AnnotateCacheCandidates(plan, *db_.pool());
    ctx->result_cache = &cache_;
    ctx->cache_generation = v.generation;
    return Execute(plan, ctx);
  }

  OpPtr Doc() {
    return alg::DocRoot(Lit({{Item::Int(1), Item::Int(1), Str("t.xml")}}));
  }
  OpPtr Descendants(OpPtr in, const char* name) {
    return alg::Step(std::move(in), accel::Axis::kDescendant,
                     accel::NodeTest::Name(Id(name)));
  }

  // The rows of `plan` without a cache.
  std::vector<Item> Uncached(const OpPtr& plan) {
    QueryContext ctx(&db_);
    auto t = Execute(plan, &ctx);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? t->GetCol(C("item")).value()->items()
                  : std::vector<Item>{};
  }

  void SetUp() override {
    EngineTest::SetUp();
    cache_.SetMinCostUs(0);  // admit every candidate
  }

  QueryCache cache_{size_t{1} << 20};
};

TEST_F(EngineCacheTest, ChildSharedWithACacheHitSubtree) {
  QueryContext first(&db_);
  ASSERT_TRUE(RunCached(Descendants(Doc(), "a"), &first).ok());
  ASSERT_EQ(first.subplan_cache_admitted, 1);
  // descendant::a is served from the cache, so the DocRoot below it is
  // evaluated for descendant::b alone: one evaluated consumer, though
  // two parents in the plan.
  auto plan = [&] {
    OpPtr doc = Doc();
    return alg::DisjointUnion(Descendants(doc, "a"), Descendants(doc, "b"));
  };
  QueryContext second(&db_);
  auto t = RunCached(plan(), &second);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(second.subplan_cache_hits, 1);
  ASSERT_EQ(t->rows(), 3u);
  EXPECT_EQ(t->GetCol(C("item")).value()->items(), Uncached(plan()));
}

TEST_F(EngineCacheTest, PublishCandidateOutlivesItsLastConsumer) {
  // descendant::a's only consumer runs early, but the candidate's table
  // must still be whole when it is published after the whole plan ran.
  auto a_items = [&](const char* as) {
    return alg::Project(Descendants(Doc(), "a"),
                        {{C("iter"), C("iter")}, {C(as), C("item")}});
  };
  OpPtr first_plan = alg::DisjointUnion(
      alg::Project(a_items("item"), {{C("iter"), C("iter")},
                                     {C("item"), C("item")}}),
      Descendants(Doc(), "b"));
  QueryContext first(&db_);
  ASSERT_TRUE(RunCached(first_plan, &first).ok());
  EXPECT_EQ(first.subplan_cache_admitted, 3);  // root, both steps
  // A new plan over the same step: it misses at its root and is served
  // descendant::a from the cache.
  QueryContext second(&db_);
  auto t = RunCached(a_items("a"), &second);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(second.subplan_cache_hits, 1);
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(t->GetCol(C("a")).value()->items(),
            Uncached(Descendants(Doc(), "a")));
}

// --- node_build ----------------------------------------------------------

TEST_F(EngineTest, BuildTextAndAttributeFragments) {
  ForestBuilder forest(ctx_.get());
  Item t = forest.Text(Id("hello"));
  Item a = forest.Attribute(Id("k"), Id("v"));
  forest.Finish();
  EXPECT_EQ(StringOf(t), "hello");
  EXPECT_EQ(a.kind, ItemKind::kAttr);
  EXPECT_EQ(StringOf(a), "v");
}

TEST_F(EngineTest, BuildElementDeepCopiesSubtree) {
  std::vector<Item> content = {Item::Node(0, 4)};  // <b x="7">2</b>
  ForestBuilder forest(ctx_.get());
  Item e = forest.Element(Id("wrap"), content).value();
  forest.Finish();
  std::string xml = xml::SerializeSubtree(ctx_->doc(e.NodeFrag()),
                                          e.NodePre(), *db_.pool());
  EXPECT_EQ(xml, "<wrap><b x=\"7\">2</b></wrap>");
}

TEST_F(EngineTest, BuildElementJoinsAtomicRunsAroundNodes) {
  // A run of one atomic keeps its surrogate; a longer run is joined
  // with single spaces; a node ends a run.
  std::vector<Item> content = {Item::Int(1), Item::Int(2), Item::Node(0, 2),
                               Str("x"), Item::Attr(0, 5)};
  ForestBuilder forest(ctx_.get());
  Item e = forest.Element(Id("e"), content).value();
  forest.Finish();
  const xml::Document& d = ctx_->doc(e.NodeFrag());
  EXPECT_EQ(xml::SerializeSubtree(d, e.NodePre(), *db_.pool()),
            "<e x=\"7\">1 2<a>1</a>x</e>");
  EXPECT_EQ(d.value(d.num_nodes() - 1), Id("x"));
}

TEST_F(EngineTest, ForestLaysOutOneDocumentPerTree) {
  // Three trees in one fragment: each under its own level-0 document
  // node, in call order, and the forest validates as a whole.
  ForestBuilder forest(ctx_.get());
  std::vector<Item> content = {Item::Node(0, 4)};  // <b x="7">2</b>
  Item e = forest.Element(Id("wrap"), content).value();
  Item t = forest.Text(Id("hello"));
  Item a = forest.Attribute(Id("k"), Id("v"));
  EXPECT_EQ(ctx_->num_constructed(), 1u);
  forest.Finish();
  EXPECT_EQ(ctx_->num_constructed(), 1u);
  ASSERT_EQ(e.NodeFrag(), QueryContext::kFirstConstructed);
  ASSERT_EQ(t.NodeFrag(), e.NodeFrag());
  ASSERT_EQ(a.NodeFrag(), e.NodeFrag());
  const xml::Document& d = ctx_->doc(e.NodeFrag());
  std::string err;
  EXPECT_TRUE(d.Validate(&err)) << err;
  // wrap tree: doc, wrap, b, @x, "2"; text tree: doc, wrapper, text;
  // attribute tree: doc, wrapper, @k.
  EXPECT_EQ(d.tree_roots(), (std::vector<xml::Pre>{0, 5, 8}));
  EXPECT_EQ(e.NodePre(), 1u);
  EXPECT_EQ(t.NodePre(), 7u);
  EXPECT_EQ(a.NodePre(), 10u);
  EXPECT_EQ(d.TreeRoot(e.NodePre()), 0u);
  EXPECT_EQ(d.TreeRoot(4), 0u);
  EXPECT_EQ(d.TreeRoot(t.NodePre()), 5u);
  EXPECT_EQ(d.TreeRoot(a.NodePre()), 8u);
  EXPECT_EQ(d.TreeRoot(8), 8u);
  // A tree's document node has no parent; the element's parent is its
  // own tree's document node.
  xml::Pre p = 0;
  EXPECT_FALSE(d.Parent(5, &p));
  ASSERT_TRUE(d.Parent(t.NodePre(), &p));
  EXPECT_EQ(p, 6u);
  ASSERT_TRUE(d.Parent(6, &p));
  EXPECT_EQ(p, 5u);
  EXPECT_EQ(xml::SerializeSubtree(d, 0, *db_.pool()),
            "<wrap><b x=\"7\">2</b></wrap>");
  EXPECT_EQ(xml::SerializeSubtree(d, 5, *db_.pool()),
            "<fs:text-wrapper>hello</fs:text-wrapper>");
}

TEST_F(EngineTest, ForestBuilderWithoutTreesRegistersNothing) {
  ForestBuilder forest(ctx_.get());
  EXPECT_EQ(forest.bytes(), 0);
  forest.Finish();
  EXPECT_EQ(ctx_->num_constructed(), 0u);
}

TEST_F(EngineTest, OneFragmentPerConstructorEvaluation) {
  // Three iterations of one element constructor build one forest of
  // three trees, not three fragments; fn:root of each element is its
  // own tree's document node.
  Pathfinder pf(&db_);
  QueryOptions o;
  o.context_doc = "t.xml";
  auto r = pf.Run("for $i in (1,2,3) return <a/>", o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r->Serialize(), "<a/><a/><a/>");
  EXPECT_EQ(r->ctx->num_constructed(), 1u);
  auto roots = pf.Run(
      "let $e := for $i in (1,2,3) return <a/> "
      "return (count(root($e[1]) | root($e[2]) | root($e[3])), "
      "root($e[2]) is $e[2]/..)",
      o);
  ASSERT_TRUE(roots.ok()) << roots.status().ToString();
  EXPECT_EQ(*roots->Serialize(), "3 true");
}

TEST_F(EngineTest, NodeStringIdEqualsInternedStringValue) {
  // Elements with no, one (direct or nested) and several text
  // descendants, next to every leaf kind.
  auto frag = db_.LoadXml(
      "s.xml",
      "<r k=\"v\"><e0/><e0b><c/></e0b><e1>one</e1><e1b><i>deep</i></e1b>"
      "<e2>a<b>b</b>c</e2><!--cm--><?pi val?>tail</r>");
  ASSERT_TRUE(frag.ok());
  const xml::Document& d = db_.doc(*frag);
  StringPool* pool = db_.pool();
  auto expect_same = [&](const xml::Document& doc, uint32_t f) {
    for (xml::Pre v = 0; v < doc.num_nodes(); ++v) {
      Item it = doc.IsAttr(v) ? Item::Attr(f, v) : Item::Node(f, v);
      EXPECT_EQ(NodeStringId(ctx_.get(), it),
                pool->Intern(doc.StringValue(v, *pool)))
          << "pre " << v;
    }
  };
  expect_same(d, *frag);
  // Constructed fragments: an element holding a copied subtree, a text
  // node and an attribute node, as three trees of one forest.
  ForestBuilder forest(ctx_.get());
  std::vector<Item> content = {Item::Node(*frag, 1)};
  Item e = forest.Element(Id("w"), content).value();
  Item t = forest.Text(Id("hello"));
  Item a = forest.Attribute(Id("k"), Id("v"));
  forest.Finish();
  for (const Item& it : {e, t, a}) {
    expect_same(ctx_->doc(it.NodeFrag()), it.NodeFrag());
  }
}

TEST_F(EngineTest, CopySubtreeOfDocumentNodeCopiesChildren) {
  xml::TreeBuilder b(db_.pool());
  b.StartElem("holder");
  b.CopySubtree(db_.doc(0), 0);
  b.EndElem();
  auto doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(xml::SerializeSubtree(*doc, 1, *db_.pool()),
            "<holder><r><a>1</a><b x=\"7\">2</b><a>3</a></r></holder>");
}

}  // namespace
}  // namespace pathfinder::engine
