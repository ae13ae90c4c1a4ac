#include <gtest/gtest.h>

#include "base/rng.h"
#include "xml/database.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tree_builder.h"

namespace pathfinder::xml {
namespace {

// --- TreeBuilder -------------------------------------------------------

TEST(TreeBuilderTest, MinimalDocument) {
  StringPool pool;
  TreeBuilder b(&pool);
  b.StartElem("a");
  b.EndElem();
  auto doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 2u);
  EXPECT_EQ(doc->kind(0), NodeKind::kDoc);
  EXPECT_EQ(doc->kind(1), NodeKind::kElem);
  EXPECT_EQ(doc->size(0), 1u);
  EXPECT_EQ(doc->size(1), 0u);
  EXPECT_EQ(doc->level(1), 1);
  std::string err;
  EXPECT_TRUE(doc->Validate(&err)) << err;
}

TEST(TreeBuilderTest, SizesAndLevelsNest) {
  StringPool pool;
  TreeBuilder b(&pool);
  b.StartElem("a");        // pre 1
  b.Attr("id", "1");       // pre 2
  b.StartElem("b");        // pre 3
  b.Text("hi");            // pre 4
  b.EndElem();
  b.StartElem("c");        // pre 5
  b.EndElem();
  b.EndElem();
  auto doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 6u);
  EXPECT_EQ(doc->size(1), 4u);   // a contains id, b, hi, c
  EXPECT_EQ(doc->size(3), 1u);   // b contains hi
  EXPECT_EQ(doc->level(2), 2);   // attribute below a
  EXPECT_EQ(doc->level(4), 3);   // text below b
  EXPECT_TRUE(doc->IsAttr(2));
  std::string err;
  EXPECT_TRUE(doc->Validate(&err)) << err;
}

TEST(TreeBuilderTest, NextTreeBuildsAForest) {
  StringPool pool;
  TreeBuilder b(&pool);
  b.StartElem("a");        // pre 1
  b.Attr("id", "1");       // pre 2
  b.EndElem();
  EXPECT_EQ(b.NextTree(), 3u);
  b.StartElem("b");        // pre 4
  b.Text("hi");            // pre 5
  b.EndElem();
  EXPECT_EQ(b.NextTree(), 6u);
  b.StartElem("c");        // pre 7
  b.EndElem();
  auto doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->tree_roots(), (std::vector<Pre>{0, 3, 6}));
  // Every tree is laid out like a document of its own.
  EXPECT_EQ(doc->size(0), 2u);
  EXPECT_EQ(doc->size(3), 2u);
  EXPECT_EQ(doc->size(6), 1u);
  EXPECT_EQ(doc->level(3), 0);
  EXPECT_EQ(doc->level(4), 1);
  EXPECT_EQ(doc->level(5), 2);
  EXPECT_EQ(doc->TreeRoot(2), 0u);
  EXPECT_EQ(doc->TreeRoot(3), 3u);
  EXPECT_EQ(doc->TreeRoot(5), 3u);
  EXPECT_EQ(doc->TreeRoot(7), 6u);
  Pre p = 0;
  EXPECT_FALSE(doc->Parent(3, &p));  // a document node has no parent
  ASSERT_TRUE(doc->Parent(4, &p));
  EXPECT_EQ(p, 3u);
  std::string err;
  EXPECT_TRUE(doc->Validate(&err)) << err;
  EXPECT_EQ(SerializeSubtree(*doc, 3, pool), "<b>hi</b>");
  // A document of one tree records no roots: its root is pre 0.
  auto single = ParseXml("<a/>", &pool);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->tree_roots().empty());
  EXPECT_EQ(single->TreeRoot(1), 0u);
}

TEST(TreeBuilderTest, UnclosedElementFails) {
  StringPool pool;
  TreeBuilder b(&pool);
  b.StartElem("a");
  EXPECT_FALSE(std::move(b).Finish().ok());
}

TEST(TreeBuilderTest, EmptyDocumentFails) {
  StringPool pool;
  TreeBuilder b(&pool);
  EXPECT_FALSE(std::move(b).Finish().ok());
}

// --- TreeBuilder::CopySubtree -------------------------------------------

// Node-by-node reference for CopySubtree: re-emit every node of the
// subtree through the string entry points (document nodes: children).
void CopyNodeByNode(const Document& src, Pre v, TreeBuilder* b) {
  const StringPool& pool = *b->pool();
  switch (src.kind(v)) {
    case NodeKind::kDoc:
    case NodeKind::kElem: {
      bool elem = src.kind(v) == NodeKind::kElem;
      if (elem) b->StartElem(pool.Get(src.prop(v)));
      for (Pre w = v + 1; w <= v + src.size(v); w += src.size(w) + 1) {
        CopyNodeByNode(src, w, b);
      }
      if (elem) b->EndElem();
      return;
    }
    case NodeKind::kAttr:
      b->Attr(pool.Get(src.prop(v)), pool.Get(src.value(v)));
      return;
    case NodeKind::kText:
      b->Text(pool.Get(src.value(v)));
      return;
    case NodeKind::kComment:
      b->Comment(pool.Get(src.value(v)));
      return;
    case NodeKind::kPi:
      b->Pi(pool.Get(src.prop(v)), pool.Get(src.value(v)));
      return;
  }
}

// Builds one document twice, copying the subtree (src, v) wherever
// `body` calls its copy callback: once with CopySubtree, once node by
// node. The five columns must agree, and the copy must validate.
template <typename Body>
void ExpectBulkCopyMatches(StringPool* pool, const Document& src, Pre v,
                           const Body& body) {
  TreeBuilder bulk(pool);
  TreeBuilder ref(pool);
  body(bulk, [&] { bulk.CopySubtree(src, v); });
  body(ref, [&] { CopyNodeByNode(src, v, &ref); });
  auto a = std::move(bulk).Finish();
  auto b = std::move(ref).Finish();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->sizes(), b->sizes()) << "source pre " << v;
  EXPECT_EQ(a->levels(), b->levels()) << "source pre " << v;
  EXPECT_EQ(a->kinds(), b->kinds()) << "source pre " << v;
  EXPECT_EQ(a->props(), b->props()) << "source pre " << v;
  EXPECT_EQ(a->values(), b->values()) << "source pre " << v;
  std::string err;
  EXPECT_TRUE(a->Validate(&err)) << err;
}

// Attributes, a comment, a PI, mixed content and nesting; every node
// is copied in turn, the document node included.
constexpr const char* kCopySource =
    "<r a=\"1\" b=\"2\">lead<x k=\"v\">t1<!--note--><?tgt pi body?>t2"
    "<y z=\"3\"><w/></y></x>tail<e/></r>";

TEST(CopySubtreeTest, EveryNodeMatchesNodeByNodeCopy) {
  StringPool pool;
  auto src = ParseXml(kCopySource, &pool);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  for (Pre v = 0; v < src->num_nodes(); ++v) {
    ExpectBulkCopyMatches(&pool, *src, v, [&](TreeBuilder& b, auto copy) {
      b.StartElem("holder");
      if (src->IsAttr(v)) {
        b.Attr("own", "x");
        copy();
      } else {
        b.Text("before");
        copy();
      }
      b.Text("after");
      b.EndElem();
    });
  }
}

TEST(CopySubtreeTest, DocumentNodeCopiesItsChildren) {
  StringPool pool;
  auto src = ParseXml(kCopySource, &pool);
  ASSERT_TRUE(src.ok());
  TreeBuilder b(&pool);
  b.StartElem("holder");
  b.CopySubtree(*src, 0);
  b.EndElem();
  auto doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(SerializeSubtree(*doc, 1, pool),
            std::string("<holder>") + kCopySource + "</holder>");
}

TEST(CopySubtreeTest, NestedPositionRebasesLevels) {
  StringPool pool;
  auto src = ParseXml(kCopySource, &pool);
  ASSERT_TRUE(src.ok());
  for (Pre v : {Pre{0}, Pre{1}, Pre{5}}) {  // document, <r>, <x>
    ExpectBulkCopyMatches(&pool, *src, v, [](TreeBuilder& b, auto copy) {
      b.StartElem("h");
      b.Attr("q", "1");
      b.Text("before");
      b.StartElem("in1");
      b.StartElem("in2");
      copy();
      b.Text("mid");
      copy();  // twice in a row: the columns grow past the first reserve
      b.EndElem();
      copy();
      b.EndElem();
      b.StartElem("after");
      b.EndElem();
      b.EndElem();
    });
  }
}

TEST(CopySubtreeTest, CopiesConstructedFragments) {
  // A fragment shaped like an element constructor's result (document
  // node, element at pre 1), itself holding a bulk-copied subtree.
  StringPool pool;
  auto src = ParseXml(kCopySource, &pool);
  ASSERT_TRUE(src.ok());
  TreeBuilder fb(&pool);
  fb.StartElem(pool.Intern("made"));
  fb.Attr(pool.Intern("n"), pool.Intern("7"));
  fb.Text(pool.Intern("payload"));
  fb.CopySubtree(*src, 5);  // <x>
  fb.StartElem("tail");
  fb.EndElem();
  fb.EndElem();
  auto frag = std::move(fb).Finish();
  ASSERT_TRUE(frag.ok());
  std::string err;
  ASSERT_TRUE(frag->Validate(&err)) << err;
  for (Pre v = 0; v < frag->num_nodes(); ++v) {
    ExpectBulkCopyMatches(&pool, *frag, v, [&](TreeBuilder& b, auto copy) {
      b.StartElem("holder");
      if (frag->IsAttr(v)) {
        copy();
      } else {
        b.StartElem("deeper");
        copy();
        b.EndElem();
      }
      b.EndElem();
    });
  }
}

// --- Parent / StringValue -----------------------------------------------

TEST(DocumentTest, ParentChain) {
  StringPool pool;
  TreeBuilder b(&pool);
  b.StartElem("a");
  b.StartElem("b");
  b.Text("t");
  b.EndElem();
  b.EndElem();
  auto doc = std::move(b).Finish().value();
  Pre p;
  ASSERT_TRUE(doc.Parent(3, &p));  // text -> b
  EXPECT_EQ(p, 2u);
  ASSERT_TRUE(doc.Parent(2, &p));  // b -> a
  EXPECT_EQ(p, 1u);
  ASSERT_TRUE(doc.Parent(1, &p));  // a -> doc node
  EXPECT_EQ(p, 0u);
  EXPECT_FALSE(doc.Parent(0, &p));
}

TEST(DocumentTest, StringValueConcatenatesDescendantText) {
  StringPool pool;
  auto doc = ParseXml("<a>x<b>y</b>z</a>", &pool).value();
  EXPECT_EQ(doc.StringValue(1, pool), "xyz");
}

// --- Parser --------------------------------------------------------------

TEST(ParserTest, ParsesElementsAttributesText) {
  StringPool pool;
  auto doc = ParseXml(R"(<a x="1" y="two"><b>text</b></a>)", &pool);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->num_nodes(), 6u);  // doc, a, @x, @y, b, text
  EXPECT_EQ(pool.Get(doc->prop(1)), "a");
  EXPECT_EQ(pool.Get(doc->prop(2)), "x");
  EXPECT_EQ(pool.Get(doc->value(2)), "1");
  EXPECT_EQ(pool.Get(doc->value(5)), "text");
}

TEST(ParserTest, EntityDecoding) {
  StringPool pool;
  auto doc = ParseXml("<a>&lt;x&gt; &amp; &#65;&#x42;</a>", &pool);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->StringValue(1, pool), "<x> & AB");
}

TEST(ParserTest, CdataSection) {
  StringPool pool;
  auto doc = ParseXml("<a><![CDATA[<not-a-tag> & raw]]></a>", &pool);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->StringValue(1, pool), "<not-a-tag> & raw");
}

TEST(ParserTest, CommentsAndPis) {
  StringPool pool;
  auto doc = ParseXml("<a><!-- note --><?target data?></a>", &pool);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->kind(2), NodeKind::kComment);
  EXPECT_EQ(doc->kind(3), NodeKind::kPi);
  EXPECT_EQ(pool.Get(doc->prop(3)), "target");
}

TEST(ParserTest, XmlDeclAndDoctypeSkipped) {
  StringPool pool;
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a SYSTEM \"x\"><a/>", &pool);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 2u);
}

TEST(ParserTest, SelfClosingAndNesting) {
  StringPool pool;
  auto doc = ParseXml("<a><b/><c><d/></c></a>", &pool);
  ASSERT_TRUE(doc.ok());
  std::string err;
  EXPECT_TRUE(doc->Validate(&err)) << err;
  EXPECT_EQ(doc->size(1), 3u);  // b, c, d
}

TEST(ParserTest, WhitespaceOnlyTextDropped) {
  StringPool pool;
  auto doc = ParseXml("<a>\n  <b/>\n  <c/>\n</a>", &pool);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 4u);  // doc, a, b, c — no text nodes
}

TEST(ParserTest, MixedContentPreserved) {
  StringPool pool;
  auto doc = ParseXml("<a>pre <b>mid</b> post</a>", &pool);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->StringValue(1, pool), "pre mid post");
}

TEST(ParserTest, ErrorsAreDiagnosed) {
  StringPool pool;
  EXPECT_FALSE(ParseXml("<a><b></a>", &pool).ok());    // mismatched
  EXPECT_FALSE(ParseXml("<a>", &pool).ok());           // unclosed
  EXPECT_FALSE(ParseXml("<a x=1/>", &pool).ok());      // unquoted attr
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>", &pool).ok());
  EXPECT_FALSE(ParseXml("</a>", &pool).ok());          // stray end tag
}

TEST(ParserTest, DecodeEntitiesStandalone) {
  EXPECT_EQ(*DecodeEntities("a&amp;b"), "a&b");
  EXPECT_EQ(*DecodeEntities("&quot;&apos;"), "\"'");
  EXPECT_FALSE(DecodeEntities("&bogus;").ok());
  EXPECT_FALSE(DecodeEntities("&#xZZ;").ok());
}

// --- Serializer round trip -----------------------------------------------

TEST(SerializerTest, RoundTripSimple) {
  StringPool pool;
  const char* xml = R"(<a x="1"><b>text &amp; more</b><c/></a>)";
  auto doc = ParseXml(xml, &pool).value();
  EXPECT_EQ(SerializeDocument(doc, pool), xml);
}

TEST(SerializerTest, EscapesSpecials) {
  StringPool pool;
  TreeBuilder b(&pool);
  b.StartElem("a");
  b.Attr("q", "say \"hi\" & <go>");
  b.Text("1 < 2 & 3 > 2");
  b.EndElem();
  auto doc = std::move(b).Finish().value();
  EXPECT_EQ(SerializeDocument(doc, pool),
            "<a q=\"say &quot;hi&quot; &amp; &lt;go&gt;\">"
            "1 &lt; 2 &amp; 3 &gt; 2</a>");
}

TEST(SerializerTest, SerializeSubtree) {
  StringPool pool;
  auto doc = ParseXml("<a><b>x</b><c>y</c></a>", &pool).value();
  EXPECT_EQ(SerializeSubtree(doc, 2, pool), "<b>x</b>");
  EXPECT_EQ(SerializeSubtree(doc, 4, pool), "<c>y</c>");
}

TEST(SerializerTest, LoneAttribute) {
  StringPool pool;
  auto doc = ParseXml("<a k=\"v\"/>", &pool).value();
  EXPECT_EQ(SerializeSubtree(doc, 2, pool), "k=\"v\"");
}

// Property: parse(serialize(parse(x))) == parse(x) for random documents.
class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

void BuildRandomTree(Rng* rng, TreeBuilder* b, int depth) {
  int kids = static_cast<int>(rng->Range(0, depth > 3 ? 1 : 3));
  bool last_was_text = false;
  for (int i = 0; i < kids; ++i) {
    switch (rng->Below(4)) {
      case 0:
        // Adjacent text nodes would merge on reparse; keep them apart.
        if (last_was_text) {
          b->Comment("sep");
        }
        b->Text("t" + std::to_string(rng->Below(50)));
        last_was_text = true;
        break;
      case 1:
        b->Comment("c");
        last_was_text = false;
        break;
      default: {
        last_was_text = false;
        b->StartElem("e" + std::to_string(rng->Below(5)));
        if (rng->Chance(0.5)) {
          b->Attr("k" + std::to_string(rng->Below(3)),
                  "v" + std::to_string(rng->Below(9)));
        }
        BuildRandomTree(rng, b, depth + 1);
        b->EndElem();
        break;
      }
    }
  }
}

TEST_P(RoundTripTest, SerializeParseStable) {
  StringPool pool;
  Rng rng(GetParam());
  TreeBuilder b(&pool);
  b.StartElem("root");
  BuildRandomTree(&rng, &b, 0);
  b.EndElem();
  auto doc = std::move(b).Finish().value();
  std::string err;
  ASSERT_TRUE(doc.Validate(&err)) << err;

  std::string s1 = SerializeDocument(doc, pool);
  auto doc2 = ParseXml(s1, &pool);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString() << "\n" << s1;
  ASSERT_TRUE(doc2->Validate(&err)) << err;
  EXPECT_EQ(SerializeDocument(*doc2, pool), s1);
  EXPECT_EQ(doc2->num_nodes(), doc.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Range<uint64_t>(1, 25));

// --- Database --------------------------------------------------------------

TEST(DatabaseTest, LoadAndFind) {
  Database db;
  auto id = db.LoadXml("d.xml", "<r><x/></r>");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*db.FindDocument("d.xml"), *id);
  EXPECT_FALSE(db.FindDocument("missing.xml").ok());
  EXPECT_EQ(db.num_documents(), 1u);
  EXPECT_GT(db.EncodingBytes(), 0u);
}

TEST(DatabaseTest, SurrogateSharingAcrossDocuments) {
  Database db;
  ASSERT_TRUE(db.LoadXml("a.xml", "<tag>shared text</tag>").ok());
  size_t before = db.PoolPayloadBytes();
  ASSERT_TRUE(db.LoadXml("b.xml", "<tag>shared text</tag>").ok());
  // Identical tags and text share surrogates: no new payload.
  EXPECT_EQ(db.PoolPayloadBytes(), before);
}

}  // namespace
}  // namespace pathfinder::xml
