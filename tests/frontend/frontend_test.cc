#include <gtest/gtest.h>

#include "frontend/lexer.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"

namespace pathfinder::frontend {
namespace {

// --- Lexer -----------------------------------------------------------

std::vector<Tok> LexAll(std::string_view s) {
  Lexer lex(s);
  std::vector<Tok> out;
  EXPECT_TRUE(lex.Advance().ok());
  while (lex.Cur().kind != Tok::kEof) {
    out.push_back(lex.Cur().kind);
    EXPECT_TRUE(lex.Advance().ok());
  }
  return out;
}

TEST(LexerTest, BasicTokens) {
  EXPECT_EQ(LexAll("$x := 1"),
            (std::vector<Tok>{Tok::kDollar, Tok::kName, Tok::kColonEq,
                              Tok::kInt}));
  EXPECT_EQ(LexAll("a//b"),
            (std::vector<Tok>{Tok::kName, Tok::kSlashSlash, Tok::kName}));
  EXPECT_EQ(LexAll("child::a"),
            (std::vector<Tok>{Tok::kName, Tok::kColonColon, Tok::kName}));
}

TEST(LexerTest, NumbersAndStrings) {
  Lexer lex("42 3.5 1e3 \"he\"\"llo\" 'wo''rld'");
  ASSERT_TRUE(lex.Advance().ok());
  EXPECT_EQ(lex.Cur().kind, Tok::kInt);
  EXPECT_EQ(lex.Cur().ival, 42);
  ASSERT_TRUE(lex.Advance().ok());
  EXPECT_EQ(lex.Cur().kind, Tok::kDbl);
  EXPECT_EQ(lex.Cur().dval, 3.5);
  ASSERT_TRUE(lex.Advance().ok());
  EXPECT_EQ(lex.Cur().kind, Tok::kDbl);
  EXPECT_EQ(lex.Cur().dval, 1000.0);
  ASSERT_TRUE(lex.Advance().ok());
  EXPECT_EQ(lex.Cur().kind, Tok::kStr);
  EXPECT_EQ(lex.Cur().text, "he\"llo");
  ASSERT_TRUE(lex.Advance().ok());
  EXPECT_EQ(lex.Cur().text, "wo'rld");
}

TEST(LexerTest, ComparisonOperators) {
  EXPECT_EQ(LexAll("< <= > >= << >> = !="),
            (std::vector<Tok>{Tok::kLt, Tok::kLe, Tok::kGt, Tok::kGe,
                              Tok::kLtLt, Tok::kGtGt, Tok::kEq, Tok::kNe}));
}

TEST(LexerTest, DirectElemStartRequiresAdjacentName) {
  EXPECT_EQ(LexAll("<a"),
            (std::vector<Tok>{Tok::kDirectElemStart, Tok::kName}));
  EXPECT_EQ(LexAll("1 < 2"),
            (std::vector<Tok>{Tok::kInt, Tok::kLt, Tok::kInt}));
}

TEST(LexerTest, NestedComments) {
  EXPECT_EQ(LexAll("1 (: outer (: inner :) still :) 2"),
            (std::vector<Tok>{Tok::kInt, Tok::kInt}));
}

TEST(LexerTest, PrefixedNames) {
  Lexer lex("local:fun fs:ddo");
  ASSERT_TRUE(lex.Advance().ok());
  EXPECT_EQ(lex.Cur().text, "local:fun");
  ASSERT_TRUE(lex.Advance().ok());
  EXPECT_EQ(lex.Cur().text, "fs:ddo");
}

TEST(LexerTest, Errors) {
  Lexer lex("\"unterminated");
  EXPECT_FALSE(lex.Advance().ok());
  Lexer lex2("#");
  EXPECT_FALSE(lex2.Advance().ok());
}

// --- Parser ----------------------------------------------------------

ExprPtr Parse(const std::string& q) {
  auto mod = ParseQuery(q);
  EXPECT_TRUE(mod.ok()) << mod.status().ToString() << " for: " << q;
  return mod.ok() ? mod->body : nullptr;
}

TEST(ParserTest, Literals) {
  EXPECT_EQ(Parse("42")->kind, ExprKind::kIntLit);
  EXPECT_EQ(Parse("4.5")->kind, ExprKind::kDblLit);
  EXPECT_EQ(Parse("\"x\"")->kind, ExprKind::kStrLit);
  EXPECT_EQ(Parse("()")->kind, ExprKind::kEmpty);
}

TEST(ParserTest, OperatorPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3)
  ExprPtr e = Parse("1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::kBinOp);
  EXPECT_EQ(e->op, BinOp::kAdd);
  EXPECT_EQ(e->children[1]->op, BinOp::kMul);
  // comparison binds looser than arithmetic
  ExprPtr c = Parse("1 + 1 = 2");
  EXPECT_EQ(c->op, BinOp::kGenEq);
  // and binds tighter than or
  ExprPtr b = Parse("1 or 2 and 3");
  EXPECT_EQ(b->op, BinOp::kOr);
  EXPECT_EQ(b->children[1]->op, BinOp::kAnd);
}

// Each query parses to the same tree as its fully parenthesized form
// (parentheses add no node).
TEST(ParserTest, PrecedenceAndAssociativity) {
  const std::pair<const char*, const char*> cases[] = {
      // Every level associates to the left.
      {"1 - 2 - 3", "(1 - 2) - 3"},
      {"8 div 4 idiv 2 mod 3 * 5", "(((8 div 4) idiv 2) mod 3) * 5"},
      {"$a | $b union $c", "($a | $b) union $c"},
      {"1 or 2 or 3", "(1 or 2) or 3"},
      {"1 and 2 and 3", "(1 and 2) and 3"},
      // One operator per level, loosest first.
      {"1 or 2 and 3 = 4 + 5 * $a | $b",
       "1 or (2 and (3 = (4 + (5 * ($a | $b)))))"},
      {"$a | $b * 5 + 4 = 3 and 2 or 1",
       "((((($a | $b) * 5) + 4) = 3) and 2) or 1"},
      {"1 * 2 + 3 * 4", "(1 * 2) + (3 * 4)"},
      {"1 + 2 eq 3 - 4", "(1 + 2) eq (3 - 4)"},
      {"1 = 2 and 3 = 4", "(1 = 2) and (3 = 4)"},
      {"1 + (2 + 3)", "1 + (2 + 3)"},
      // A sign binds tighter than arithmetic, looser than union.
      {"-$a | $b", "-($a | $b)"},
      {"-$a * $b", "(-$a) * $b"},
      {"1 - -1", "1 - (-1)"},
      {"- -1", "-(-1)"},
      {"+-1", "-1"},
      {"-+1", "-1"},
  };
  for (const auto& [q, want] : cases) {
    SCOPED_TRACE(q);
    ExprPtr got = Parse(q);
    ExprPtr ref = Parse(want);
    ASSERT_TRUE(got != nullptr && ref != nullptr);
    EXPECT_EQ(ExprToString(got), ExprToString(ref));
  }
}

TEST(ParserTest, ComparisonDoesNotAssociate) {
  for (const char* q : {"1 = 2 = 3", "1 < 2 < 3", "1 eq 2 ne 3",
                        "$a is $b is $c", "$a << $b >> $c",
                        "1 = 2 + 3 = 4"}) {
    EXPECT_FALSE(ParseQuery(q).ok()) << q;
  }
  // A union's operands are paths: no sign after '|'.
  EXPECT_FALSE(ParseQuery("$a | -$b").ok());
  EXPECT_FALSE(ParseQuery("$a union +$b").ok());
}

TEST(ParserTest, ValueVsGeneralComparison) {
  EXPECT_EQ(Parse("1 eq 2")->op, BinOp::kValEq);
  EXPECT_EQ(Parse("1 = 2")->op, BinOp::kGenEq);
  EXPECT_EQ(Parse("$a is $b")->op, BinOp::kIs);
  EXPECT_EQ(Parse("$a << $b")->op, BinOp::kBefore);
}

TEST(ParserTest, PathAbbreviations) {
  ExprPtr e = Parse("$v/a//b/@c/../text()");
  ASSERT_EQ(e->kind, ExprKind::kAxisStep);
  EXPECT_EQ(e->test.kind, StepTest::Kind::kText);
  ExprPtr up = e->children[0];
  EXPECT_EQ(up->axis, accel::Axis::kParent);
  ExprPtr attr = up->children[0];
  EXPECT_EQ(attr->axis, accel::Axis::kAttribute);
  EXPECT_EQ(attr->test.name, "c");
}

TEST(ParserTest, ExplicitAxes) {
  ExprPtr e = Parse("$v/ancestor-or-self::x");
  EXPECT_EQ(e->axis, accel::Axis::kAncestorOrSelf);
  e = Parse("$v/following-sibling::*");
  EXPECT_EQ(e->axis, accel::Axis::kFollowingSibling);
  EXPECT_EQ(e->test.kind, StepTest::Kind::kElement);
}

TEST(ParserTest, Predicates) {
  ExprPtr e = Parse("$v/item[3][@id = \"x\"]");
  ASSERT_EQ(e->preds.size(), 2u);
  EXPECT_EQ(e->preds[0]->kind, ExprKind::kIntLit);
  EXPECT_EQ(e->preds[1]->op, BinOp::kGenEq);
}

TEST(ParserTest, FlworFull) {
  ExprPtr e = Parse(
      "for $a at $i in (1,2), $b in (3,4) let $c := $a "
      "where $a < $b order by $c descending, $b return $a");
  ASSERT_EQ(e->kind, ExprKind::kFlwor);
  ASSERT_EQ(e->clauses.size(), 3u);
  EXPECT_FALSE(e->clauses[0].is_let);
  EXPECT_EQ(e->clauses[0].pos_var, "i");
  EXPECT_TRUE(e->clauses[2].is_let);
  ASSERT_TRUE(e->where != nullptr);
  ASSERT_EQ(e->order_keys.size(), 2u);
  EXPECT_FALSE(e->order_keys[0].ascending);
  EXPECT_TRUE(e->order_keys[1].ascending);
}

TEST(ParserTest, IfTypeswitchQuantified) {
  EXPECT_EQ(Parse("if (1) then 2 else 3")->kind, ExprKind::kIf);
  ExprPtr ts = Parse(
      "typeswitch (5) case xs:integer return 1 "
      "case $e as element() return 2 default return 3");
  ASSERT_EQ(ts->kind, ExprKind::kTypeswitch);
  ASSERT_EQ(ts->cases.size(), 3u);
  EXPECT_EQ(ts->cases[1].var, "e");
  EXPECT_EQ(Parse("some $x in (1,2) satisfies $x = 2")->kind,
            ExprKind::kSome);
  EXPECT_EQ(Parse("every $x in (1,2) satisfies $x > 0")->kind,
            ExprKind::kEvery);
}

TEST(ParserTest, DirectConstructors) {
  ExprPtr e = Parse(R"(<a x="1" y="{ 1+1 }">text{ $v }<b/></a>)");
  ASSERT_EQ(e->kind, ExprKind::kElemConstr);
  // name, @x, @y, "text", $v, <b/>
  ASSERT_EQ(e->children.size(), 6u);
  EXPECT_EQ(e->children[0]->sval, "a");
  EXPECT_EQ(e->children[1]->kind, ExprKind::kAttrConstr);
  EXPECT_EQ(e->children[2]->kind, ExprKind::kAttrConstr);
  EXPECT_EQ(e->children[2]->children[0]->op, BinOp::kAdd);
  EXPECT_EQ(e->children[3]->kind, ExprKind::kStrLit);
  EXPECT_EQ(e->children[3]->sval, "text");
  EXPECT_EQ(e->children[4]->kind, ExprKind::kVar);
  EXPECT_EQ(e->children[5]->kind, ExprKind::kElemConstr);
}

TEST(ParserTest, DirectConstructorEscapes) {
  ExprPtr e = Parse(R"(<a>{{literal}} &amp; more</a>)");
  ASSERT_EQ(e->children.size(), 2u);
  EXPECT_EQ(e->children[1]->sval, "{literal} & more");
}

TEST(ParserTest, ComputedConstructors) {
  ExprPtr e = Parse("element foo { 1, 2 }");
  ASSERT_EQ(e->kind, ExprKind::kElemConstr);
  EXPECT_EQ(e->children[0]->sval, "foo");
  ExprPtr t = Parse("text { \"x\" }");
  EXPECT_EQ(t->kind, ExprKind::kTextConstr);
  ExprPtr dyn = Parse("element { \"nm\" } { () }");
  EXPECT_EQ(dyn->children[0]->kind, ExprKind::kStrLit);
}

TEST(ParserTest, FunctionDeclarations) {
  auto mod = ParseQuery(
      "declare function local:f($a, $b as xs:integer) as xs:integer "
      "{ $a + $b }; local:f(1, 2)");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  ASSERT_EQ(mod->functions.size(), 1u);
  EXPECT_EQ(mod->functions[0].name, "local:f");
  EXPECT_EQ(mod->functions[0].params,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(mod->body->kind, ExprKind::kFunCall);
}

TEST(ParserTest, FnPrefixStripped) {
  EXPECT_EQ(Parse("fn:count(())")->sval, "count");
  EXPECT_EQ(Parse("count(())")->sval, "count");
}

TEST(ParserTest, UnionOperator) {
  ExprPtr e = Parse("$a/x | $a/y");
  EXPECT_EQ(e->op, BinOp::kUnion);
}

TEST(ParserTest, ParseErrors) {
  EXPECT_FALSE(ParseQuery("for $x in").ok());
  EXPECT_FALSE(ParseQuery("1 +").ok());
  EXPECT_FALSE(ParseQuery("<a>").ok());
  EXPECT_FALSE(ParseQuery("<a></b>").ok());
  EXPECT_FALSE(ParseQuery("if (1) then 2").ok());
  EXPECT_FALSE(ParseQuery("$").ok());
  EXPECT_FALSE(ParseQuery("1 2").ok());
  EXPECT_FALSE(ParseQuery("typeswitch (1) case xs:integer return 1").ok());
}

// --- Normalizer ------------------------------------------------------

ExprPtr Norm(const std::string& q, const std::string& ctx_doc = "") {
  auto mod = ParseQuery(q);
  EXPECT_TRUE(mod.ok()) << mod.status().ToString();
  NormalizeOptions opts;
  opts.context_doc = ctx_doc;
  auto core = Normalize(*mod, opts);
  EXPECT_TRUE(core.ok()) << core.status().ToString() << " for: " << q;
  return core.ok() ? *core : nullptr;
}

void CheckCoreInvariants(const ExprPtr& e) {
  ASSERT_TRUE(e != nullptr);
  // Core must not contain surface-only constructs.
  EXPECT_NE(e->kind, ExprKind::kContextItem);
  EXPECT_NE(e->kind, ExprKind::kRootCtx);
  EXPECT_NE(e->kind, ExprKind::kSome);
  EXPECT_NE(e->kind, ExprKind::kEvery);
  EXPECT_TRUE(e->preds.empty());
  if (e->kind == ExprKind::kAxisStep) {
    EXPECT_EQ(e->children[0]->kind, ExprKind::kVar);
  }
  if (e->kind == ExprKind::kBinOp) {
    EXPECT_NE(e->op, BinOp::kUnion);
  }
  for (const auto& c : e->children) CheckCoreInvariants(c);
  for (const auto& cl : e->clauses) CheckCoreInvariants(cl.expr);
  if (e->where) CheckCoreInvariants(e->where);
  for (const auto& k : e->order_keys) CheckCoreInvariants(k.key);
  for (const auto& tc : e->cases) CheckCoreInvariants(tc.body);
}

TEST(NormalizeTest, CoreInvariantsHold) {
  const char* queries[] = {
      "for $x in (1,2)[position() = 1] return $x + 1",
      "doc(\"d\")/a/b[2]/c[@id = \"k\"]",
      "some $x in (1,2) satisfies $x = 1",
      "($a1, $a2)[last()]",
      "//x | //y",
      "declare function local:f($v) { $v + 1 }; local:f(2)",
  };
  for (const char* q : queries) {
    std::string query(q);
    // Provide $a1/$a2 bindings via a wrapping flwor where needed.
    if (query.find("$a1") != std::string::npos) {
      query = "for $a1 in 1, $a2 in 2 return " + query;
    }
    SCOPED_TRACE(query);
    CheckCoreInvariants(Norm(query, "ctx.xml"));
  }
}

TEST(NormalizeTest, VariablesAlphaRenamed) {
  ExprPtr e = Norm("for $x in (1,2) return for $x in (3,4) return $x");
  ASSERT_EQ(e->kind, ExprKind::kFlwor);
  const std::string outer = e->clauses[0].var;
  ExprPtr inner = e->children[0];
  ASSERT_EQ(inner->kind, ExprKind::kFlwor);
  const std::string shadow = inner->clauses[0].var;
  EXPECT_NE(outer, shadow);
  EXPECT_EQ(inner->children[0]->sval, shadow);  // $x refers to inner
}

TEST(NormalizeTest, UndefinedVariableRejected) {
  auto mod = ParseQuery("$nope");
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(Normalize(*mod, {}).ok());
}

TEST(NormalizeTest, RecursiveFunctionRejected) {
  auto mod = ParseQuery(
      "declare function local:f($n) { local:f($n) }; local:f(1)");
  ASSERT_TRUE(mod.ok());
  auto core = Normalize(*mod, {});
  ASSERT_FALSE(core.ok());
  EXPECT_EQ(core.status().code(), StatusCode::kNotSupported);
}

TEST(NormalizeTest, UnknownFunctionRejected) {
  auto mod = ParseQuery("mystery(1)");
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(Normalize(*mod, {}).ok());
}

TEST(NormalizeTest, AbsolutePathNeedsContext) {
  auto mod = ParseQuery("/a");
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(Normalize(*mod, {}).ok());
  NormalizeOptions opts;
  opts.context_doc = "d.xml";
  EXPECT_TRUE(Normalize(*mod, opts).ok());
}

TEST(NormalizeTest, PositionOutsidePredicateRejected) {
  auto mod = ParseQuery("position()");
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(Normalize(*mod, {}).ok());
}

TEST(NormalizeTest, SlashSlashBecomesDescendant) {
  // //item with no predicates must normalize to a descendant step, not
  // desc-or-self::node()/child::item.
  ExprPtr e = Norm("//item", "d.xml");
  // shape: Ddo(Flwor(for $dot in doc(...) return descendant::item($dot)))
  ASSERT_EQ(e->kind, ExprKind::kDdo);
  ExprPtr fl = e->children[0];
  ASSERT_EQ(fl->kind, ExprKind::kFlwor);
  ExprPtr step = fl->children[0];
  ASSERT_EQ(step->kind, ExprKind::kAxisStep);
  EXPECT_EQ(step->axis, accel::Axis::kDescendant);
  EXPECT_EQ(step->test.name, "item");
}

TEST(NormalizeTest, BuiltinArityChecked) {
  auto mod = ParseQuery("count(1, 2)");
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(Normalize(*mod, {}).ok());
}

TEST(NormalizeTest, IsBuiltinFunction) {
  EXPECT_TRUE(IsBuiltinFunction("count", 1));
  EXPECT_FALSE(IsBuiltinFunction("count", 2));
  EXPECT_TRUE(IsBuiltinFunction("concat", 3));
  EXPECT_FALSE(IsBuiltinFunction("no-such-fn", 1));
}

// --- Nesting bound -----------------------------------------------------

std::string Nested(const std::string& open, const std::string& inner,
                   const std::string& close, int levels) {
  std::string q;
  q.reserve((open.size() + close.size()) * levels + inner.size());
  for (int i = 0; i < levels; ++i) q += open;
  q += inner;
  for (int i = 0; i < levels; ++i) q += close;
  return q;
}

// The parser's nesting limit (parser.cc, kMaxNestingDepth).
constexpr int kLimit = 256;

TEST(ParserDepthTest, LimitLevelsParseOneMoreIsRejected) {
  struct Shape {
    const char *open, *inner, *close;
  };
  for (const Shape& s : {Shape{"(", "1", ")"}, Shape{"-", "1", ""},
                         Shape{"<a>", "", "</a>"}}) {
    SCOPED_TRACE(s.open);
    EXPECT_TRUE(ParseQuery(Nested(s.open, s.inner, s.close, kLimit)).ok());
    auto deep = ParseQuery(Nested(s.open, s.inner, s.close, kLimit + 1));
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), StatusCode::kNotSupported);
  }
}

TEST(ParserDepthTest, HundredThousandLevelsGetTypedError) {
  struct Shape {
    const char *open, *inner, *close;
  };
  for (const Shape& s : {Shape{"(", "1", ")"}, Shape{"-", "1", ""},
                         Shape{"<a>", "", "</a>"}}) {
    SCOPED_TRACE(s.open);
    auto deep = ParseQuery(Nested(s.open, s.inner, s.close, 100000));
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), StatusCode::kNotSupported);
    EXPECT_STREQ(ErrorClassName(deep.status().error_class()), "invalid_query");
  }
}

}  // namespace
}  // namespace pathfinder::frontend
