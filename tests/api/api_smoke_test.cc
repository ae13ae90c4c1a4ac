#include "api/pathfinder.h"

#include <gtest/gtest.h>

#include <string>

#include "xml/database.h"

namespace pathfinder {
namespace {

// local:f<i>($x) calls local:f<i-1> twice, so inlining doubles the
// Core tree per level: `levels` levels of a few dozen bytes each
// expand to about 2^levels copies of local:f0's body.
std::string DoublingChain(int levels) {
  std::string q = "declare function local:f0($x) { $x + 1 };\n";
  for (int i = 1; i <= levels; ++i) {
    const std::string prev = "local:f" + std::to_string(i - 1);
    q += "declare function local:f" + std::to_string(i) + "($x) { " + prev +
         "(" + prev + "($x)) };\n";
  }
  return q + "local:f" + std::to_string(levels) + "(0)";
}

class ApiSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.LoadXml("books.xml", R"(
      <bib>
        <book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book>
        <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
        <book year="1999"><title>XML Query</title><price>49.90</price></book>
      </bib>)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::string Run(const std::string& q, QueryOptions opts = {}) {
    Pathfinder pf(&db_);
    auto r = pf.Run(q, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for query: " << q;
    if (!r.ok()) return "<error: " + r.status().ToString() + ">";
    auto s = r->Serialize();
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return s.ok() ? *s : "<serialize error>";
  }

  xml::Database db_;
};

// Paper Figure 5: for $v in (10,20) return $v + 100.
TEST_F(ApiSmokeTest, PaperFigure5Query) {
  EXPECT_EQ(Run("for $v in (10,20) return $v + 100"), "110 120");
}

// Paper Figure 3: nested iteration.
TEST_F(ApiSmokeTest, PaperFigure3Query) {
  EXPECT_EQ(
      Run("for $v in (10,20), $w in (100,200) return $v + $w"),
      "110 210 120 220");
}

TEST_F(ApiSmokeTest, SimpleLiterals) {
  EXPECT_EQ(Run("1 + 2"), "3");
  EXPECT_EQ(Run("(1, 2, 3)"), "1 2 3");
  EXPECT_EQ(Run("\"hello\""), "hello");
  EXPECT_EQ(Run("()"), "");
}

TEST_F(ApiSmokeTest, PathQuery) {
  EXPECT_EQ(Run("doc(\"books.xml\")/bib/book[1]/title"),
            "<title>TCP/IP Illustrated</title>");
}

TEST_F(ApiSmokeTest, CountQuery) {
  EXPECT_EQ(Run("count(doc(\"books.xml\")//book)"), "3");
}

TEST_F(ApiSmokeTest, WhereAndConstructor) {
  EXPECT_EQ(Run("for $b in doc(\"books.xml\")//book "
                "where $b/@year = \"2000\" "
                "return <hit>{ $b/title/text() }</hit>"),
            "<hit>Data on the Web</hit>");
}

// Inlining stops at a fixed Core-node budget with a typed error
// instead of compiling a plan too large to execute.
TEST_F(ApiSmokeTest, InliningBlowUpIsNotSupported) {
  EXPECT_EQ(Run(DoublingChain(4)), "16");
  const std::string q = DoublingChain(14);
  EXPECT_LT(q.size(), 1000u);
  Pathfinder pf(&db_);
  auto r = pf.Run(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported)
      << r.status().ToString();
  // The same Pathfinder keeps answering.
  auto ok = pf.Run("count(doc(\"books.xml\")//book)");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok->Serialize(), "3");
}

TEST_F(ApiSmokeTest, OrderBy) {
  EXPECT_EQ(Run("for $b in doc(\"books.xml\")//book "
                "order by $b/price descending "
                "return data($b/@year)",
                {}),
            "1994 1999 2000");
}

}  // namespace
}  // namespace pathfinder
