#include <gtest/gtest.h>

#include "api/pathfinder.h"
#include "baseline/interp.h"
#include "xml/database.h"

namespace pathfinder {
namespace {

/// The central correctness harness: every query must produce the same
/// serialized result on the relational engine (all four knob
/// configurations) and the navigational baseline.
class DifferentialTest : public ::testing::TestWithParam<const char*> {
 protected:
  static xml::Database* db() {
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
    <item sku="t3" price="12">saw</item>
  </dept>
  <orders>
    <order ref="a1" qty="2"/>
    <order ref="t2" qty="500"/>
    <order ref="a1" qty="1"/>
  </orders>
</shop>)");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      return d;
    }();
    return db;
  }

  std::string RunPf(const char* q, bool jr, bool opt, bool scj) {
    Pathfinder pf(db());
    QueryOptions o;
    o.context_doc = "shop.xml";
    o.join_recognition = jr;
    o.optimize = opt;
    o.use_staircase = scj;
    auto r = pf.Run(q, o);
    if (!r.ok()) return "<error: " + r.status().ToString() + ">";
    auto s = r->Serialize();
    return s.ok() ? *s : "<serialize error>";
  }

  std::string RunBl(const char* q) {
    baseline::Baseline bl(db());
    baseline::BaselineOptions o;
    o.context_doc = "shop.xml";
    auto r = bl.Run(q, o);
    if (!r.ok()) return "<error: " + r.status().ToString() + ">";
    auto s = r->Serialize();
    return s.ok() ? *s : "<serialize error>";
  }
};

TEST_P(DifferentialTest, AllConfigurationsAgree) {
  const char* q = GetParam();
  std::string expected = RunBl(q);
  ASSERT_EQ(expected.find("<error"), std::string::npos)
      << "baseline failed: " << expected;
  EXPECT_EQ(RunPf(q, true, true, true), expected) << q;
  EXPECT_EQ(RunPf(q, false, true, true), expected) << "no join rec: " << q;
  EXPECT_EQ(RunPf(q, true, false, true), expected) << "no optimize: " << q;
  EXPECT_EQ(RunPf(q, true, true, false), expected) << "no staircase: " << q;
}

const char* kCorpus[] = {
    // Literals, sequences, arithmetic.
    "42",
    "-1.5e1",
    "(1, 2, 3)",
    "((1,2), (), (3))",
    "1 + 2 * 3 - 4",
    "7 div 2",
    "7 idiv 2",
    "7 mod 2",
    "-(3 + 4)",
    "1.5 + 1",
    "\"concat\" ",
    // Comparisons, logic.
    "1 = 1",
    "1 != 2",
    "(1,2,3) = (3,4)",
    "(1,2) = (3,4)",
    "2 < (1,5)",
    "1 eq 1",
    "2 gt 3",
    "\"abc\" lt \"abd\"",
    "true() and false()",
    "true() or false()",
    "not(1 = 2)",
    "boolean((0))",
    "boolean((1))",
    // FLWOR.
    "for $x in (1,2,3) return $x * $x",
    "for $x in (1,2,3) where $x >= 2 return $x",
    "for $x in (1,2), $y in (10,20) return $x + $y",
    "for $x at $i in (5,6,7) return $i",
    "let $s := (1,2,3) return (count($s), sum($s))",
    "for $x in (1,2) let $y := $x + 1 where $y = 2 return ($x, $y)",
    "for $x in (3,1,2) order by $x return $x",
    "for $x in (3,1,2) order by $x descending return $x",
    "for $x in (1,2), $y in (1,2) order by $y, $x descending "
    "return 10 * $x + $y",
    "for $x in () return 99",
    // Conditionals / typeswitch / quantifiers.
    "if (1 = 1) then \"t\" else \"f\"",
    "if (()) then 1 else 2",
    "typeswitch (5) case xs:string return 1 case xs:integer return 2 "
    "default return 3",
    "typeswitch (\"x\") case xs:integer return 1 default return 0",
    "typeswitch (/shop) case element(shop) return \"shop\" "
    "case element() return \"other\" default return \"none\"",
    "some $x in (1,2,3) satisfies $x = 2",
    "every $x in (1,2,3) satisfies $x > 0",
    "every $x in (1,2,3) satisfies $x > 1",
    "some $x in () satisfies $x = 1",
    // Paths.
    "/shop/dept",
    "/shop/dept/item",
    "//item",
    "//item/@price",
    "/shop/dept[@name = \"fruit\"]/item",
    "//item[2]",
    "//item[last()]",
    "//item[@price > 5]",
    "(//item)[2]",
    "//note/..",
    "//note/ancestor::dept",
    "//dept[1]/following-sibling::*",
    "//dept[2]/preceding-sibling::*",
    "//note/ancestor-or-self::node()",
    "//item/self::item",
    "//item/text()",
    "//item[note]",
    "/shop//item[contains(., \"a\")]",
    "//item/following::order",
    "//order[1]/preceding::item",
    "count(//descendant-or-self::node())",
    // Functions.
    "count(//item)",
    "sum(//item/@price)",
    "avg(//item/@price)",
    "max(//item/@price)",
    "min(//item/@price)",
    "sum(())",
    "count(())",
    "empty(//missing)",
    "exists(//item)",
    "string(//item[1])",
    "string-length(string(//item[1]))",
    "data(//item[1]/@sku)",
    "distinct-values(//order/@ref)",
    "distinct-values((1, 2, 1, 3, 2))",
    "contains(\"hammer\", \"ham\")",
    "starts-with(\"hammer\", \"ham\")",
    "concat(\"a\", \"b\", \"c\")",
    "number(\"3.5\")",
    "string(3.25)",
    "zero-or-one(//note)",
    "substring(\"hammer\", 2)",
    "substring(\"hammer\", 2, 3)",
    "substring(\"hammer\", 0, 3)",
    "substring(string(//item[1]), 2, 2)",
    "substring(\"abc\", 5)",
    "string-join(//item/@sku, \",\")",
    "string-join((), \"-\")",
    "string-join((\"a\",\"b\",\"c\"), \"\")",
    "for $d in /shop/dept return string-join($d/item/@sku, \"+\")",
    "name(//item[1])",
    "root(//note) is /shop/..",
    // Node identity and order.
    "//item[1] is //item[1]",
    "//item[1] is //item[2]",
    "//item[1] << //item[2]",
    "//item[2] >> //item[1]",
    // Constructors.
    "<a/>",
    "<a b=\"1\"/>",
    "<a>{ 1 + 1 }</a>",
    "<a>x{ \"y\" }z</a>",
    "<a>{ //note }</a>",
    "<a at=\"{ //item[1]/@sku }\"/>",
    "element dyn { \"content\" }",
    "text { \"hello\" }",
    "<o>{ for $i in //item return <li>{ $i/text() }</li> }</o>",
    "<t a=\"x{ 1+1 }y\"/>",
    "count(<a><b/><c/></a>/*)",
    "string(<a>1</a> )",
    "<a>{ 5, \"x\" }</a>",
    // Joins (the paper's Q8/Q11 shapes).
    "for $i in //item "
    "let $o := for $x in //order where $x/@ref = $i/@sku return $x "
    "return count($o)",
    "for $i in //item "
    "let $cheaper := for $j in //item "
    "  where $j/@price < $i/@price return $j "
    "return <r sku=\"{ $i/@sku }\">{ count($cheaper) }</r>",
    "for $o in //order where $o/@qty >= 2 "
    "return //item[@sku = $o/@ref]/text()",
    // Union.
    "//note | //order",
    "count(//item | //note)",
    // User-defined functions.
    "declare function local:sq($x) { $x * $x }; local:sq(4)",
    "declare function local:add($a, $b) { $a + $b }; "
    "local:add(local:add(1, 2), 3)",
    "declare function local:tot($i) { sum($i/@price) }; "
    "local:tot(//item)",
    // Mixed/nested.
    "sum(for $i in //item return $i/@price * 2)",
    "for $d in /shop/dept return <dept n=\"{ $d/@name }\">"
    "{ count($d/item) }</dept>",
    "for $d in /shop/dept return max($d/item/@price)",
    "(//item/@price)[. > 5]",
    "for $x in distinct-values(//order/@ref) order by $x return $x",
    // Several trees from one constructor evaluation (one forest
    // fragment): every axis stays inside its tree, and fn:root,
    // node identity and document order match one fragment per node.
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return $t[2]/b/following::*",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return $t[2]/c/preceding::*",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count($t[1]/b/following::node())",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count($t[3]/c/preceding::node())",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count($t/b/following::*)",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count($t/c/preceding::*)",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count($t[2]/@n/preceding::node())",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return $t[2]/b/following-sibling::*",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return $t[2]/c/preceding-sibling::*",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return $t/b/..",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return $t/c/ancestor::*",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count($t/c/ancestor::node())",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count(root($t[1]) | root($t[2]) | root($t[3]))",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return (root($t[2]) is $t[2]/.., root($t[1]) is root($t[2]))",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return ($t[1] is $t[2], $t[2]/b/.. is $t[2])",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return ($t[1] << $t[2], $t[3] >> $t[1], $t[1]/c << $t[2]/b, "
    "$t[2] >> $t[3]/b)",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return ($t[3]/c | $t[1]/b | $t[2])",
    "let $t := for $i in (1,2,3) return <a n=\"{ $i }\"><b/><c/></a> "
    "return count($t/b | $t/c | $t)",
    "let $t := for $i in (1,2,3) return text { $i } "
    "return count($t[1]/following::node())",
    "let $t := for $i in (1,2,3) return text { $i } "
    "return count($t[3]/preceding::node())",
    "let $t := for $i in (1,2,3) return text { $i } "
    "return count(root($t[1]) | root($t[2]) | root($t[3]))",
    "let $t := for $i in (1,2,3) return text { $i } "
    "return ($t[1] << $t[2], $t[3] is $t[3], $t[2]/.. is $t[3]/..)",
    "let $t := for $i in (1,2,3) return text { $i } "
    "return ($t[3] | $t[1])",
    // Attribute trees, copied into their elements.
    "for $i in (1,2,3) return <a n=\"{ $i }\" m=\"x\"/>",
    "count((for $i in (1,2,3) return <a n=\"{ $i }\"/>)"
    "/@n/following::node())",
    // Trees holding copies of stored subtrees.
    "let $t := for $d in /shop/dept return <d>{ $d/item }</d> "
    "return $t[1]/item[1]/following::item",
    "let $t := for $d in /shop/dept return <d>{ $d/item }</d> "
    "return $t[2]/item[1]/preceding::node()",
    "for $x in (for $i in (1,2,3) return <a><b/><c/></a>) "
    "return count($x/b/following::node())",
    // One large forest (3,125 trees): a Step over it is one group, big
    // enough for the staircase join's morsel-parallel scans.
    "count((for $a in //item, $b in //item, $c in //item, $d in //item, "
    "$e in //item return <x><y/><y/><y/><y/><y/><y/></x>)//y)",
    "count((for $a in //item, $b in //item, $c in //item, $d in //item, "
    "$e in //item return <x><y/><y/></x>)/y[2]/preceding::y)",
};

INSTANTIATE_TEST_SUITE_P(Corpus, DifferentialTest,
                         ::testing::ValuesIn(kCorpus));

}  // namespace
}  // namespace pathfinder
