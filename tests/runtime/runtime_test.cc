#include <gtest/gtest.h>

#include "api/pathfinder.h"
#include "engine/node_build.h"
#include "runtime/serialize.h"
#include "xml/database.h"

namespace pathfinder::runtime {
namespace {

/// Column id of `name` (tests name columns by string).
bat::ColId C(std::string_view name) { return bat::InternCol(name); }

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.LoadXml("d.xml", "<r><a k=\"v\">hi</a><b/></r>").ok());
    ctx_ = std::make_unique<engine::QueryContext>(&db_);
  }

  Item Str(const char* s) { return Item::Str(db_.pool()->Intern(s)); }

  xml::Database db_;
  std::unique_ptr<engine::QueryContext> ctx_;
};

TEST_F(SerializeTest, AtomicsJoinWithSpaces) {
  std::vector<Item> items = {Item::Int(1), Item::Dbl(2.5), Str("x"),
                             Item::Bool(true)};
  EXPECT_EQ(*SerializeSequence(*ctx_, items), "1 2.5 x true");
}

TEST_F(SerializeTest, NodesSerializeAsXml) {
  std::vector<Item> items = {Item::Node(0, 2)};  // <a k="v">hi</a>
  EXPECT_EQ(*SerializeSequence(*ctx_, items), "<a k=\"v\">hi</a>");
}

TEST_F(SerializeTest, NoSpaceAroundNodes) {
  std::vector<Item> items = {Item::Int(1), Item::Node(0, 5),
                             Item::Int(2)};  // <b/>
  EXPECT_EQ(*SerializeSequence(*ctx_, items), "1<b/>2");
}

TEST_F(SerializeTest, AttributeItemsUseDiagnosticForm) {
  std::vector<Item> items = {Item::Attr(0, 3)};  // k="v"
  EXPECT_EQ(*SerializeSequence(*ctx_, items), "k=\"v\"");
}

TEST_F(SerializeTest, ConstructedFragmentsSerialize) {
  StringPool* pool = db_.pool();
  engine::ForestBuilder leaves(ctx_.get());
  Item text = leaves.Text(pool->Intern("payload"));
  Item attr = leaves.Attribute(pool->Intern("n"), pool->Intern("1"));
  leaves.Finish();
  engine::ForestBuilder elems(ctx_.get());
  std::vector<Item> content = {attr, text, Item::Int(7)};
  Item elem = elems.Element(pool->Intern("e"), content).value();
  elems.Finish();
  EXPECT_EQ(*SerializeItem(*ctx_, elem), "<e n=\"1\">payload7</e>");
}

TEST_F(SerializeTest, EmptySequenceIsEmptyString) {
  EXPECT_EQ(*SerializeSequence(*ctx_, {}), "");
}

TEST_F(SerializeTest, TableToSequenceExtractsItems) {
  bat::Table t;
  auto iter = bat::Column::MakeInt();
  iter->ints() = {1, 1};
  auto pos = bat::Column::MakeInt();
  pos->ints() = {1, 2};
  auto item = bat::Column::MakeItem();
  item->items() = {Item::Int(10), Item::Int(20)};
  t.AddCol(C("iter"), iter);
  t.AddCol(C("pos"), pos);
  t.AddCol(C("item"), item);
  auto seq = TableToSequence(t);
  ASSERT_TRUE(seq.ok());
  ASSERT_EQ(seq->size(), 2u);
  EXPECT_EQ((*seq)[0].AsInt(), 10);
}

TEST_F(SerializeTest, QueryResultKeepsFragmentsAlive) {
  // Constructed nodes in the result must stay valid after Run returns
  // (the ctx travels inside QueryResult).
  Pathfinder pf(&db_);
  QueryOptions o;
  o.context_doc = "d.xml";
  auto r = pf.Run("<wrap>{ //a/text() }</wrap>", o);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(*r->Serialize(), "<wrap>hi</wrap>");
  EXPECT_GE(r->ctx->num_constructed(), 1u);
}

}  // namespace
}  // namespace pathfinder::runtime
