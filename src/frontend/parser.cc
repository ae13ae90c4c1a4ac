#include "frontend/parser.h"

#include <cctype>

#include "frontend/lexer.h"
#include "xml/parser.h"

namespace pathfinder::frontend {

namespace {

/// Strip the "fn:" prefix from built-in function names; other prefixes
/// (local:, fs:, xs:) are kept and matched literally.
std::string CanonicalFunName(const std::string& name) {
  if (name.rfind("fn:", 0) == 0) return name.substr(3);
  return name;
}

/// Deepest nesting the parser accepts, counted two ways. (1) The
/// parser's own recursion: the number of enclosing ParseExprSingle /
/// signed ParseUnary / ParseDirectElemAt frames open when one of them
/// is entered. Each level costs a few stack frames (a parenthesized one
/// six: ParseExprSingle, ParseBinary, ParsePath, ParseStepExpr,
/// ParsePrimary, ParseExpr), so an unbounded query (a few KB of '(')
/// would overflow the stack. (2) The height of the tree it builds
/// (Expr::height). The loops over binary operators, path steps and
/// predicates nest without recursing, but every pass after the parser
/// recurses once per level, down to the recursive destruction of the
/// tree; Seal rejects a node as soon as it would pass the limit.
/// The limit is set by a Debug+TSan build (GCC 12) running a query
/// through Run on an 8 MiB thread: a chain of unions overflows the
/// stack from 457 levels (about 18 KiB per level across the passes),
/// nested count() calls from 514, and nested element constructors and
/// predicate chains exceed the sanitizer's 65,536-frame stack traces
/// from 585 and 584. 256 levels keep the worst under 60% of that; a
/// Release build runs every such shape at 1,000 levels.
constexpr int kMaxNestingDepth = 256;

/// Binary operator precedence, loosest first.
enum Prec : uint8_t {
  kOrPrec = 1,
  kAndPrec,
  kCmpPrec,
  kAddPrec,
  kMulPrec,
  kUnionPrec,
};

struct BinOpEntry {
  Tok tok;
  std::string_view kw;  // the name's text, for Tok::kName operators
  BinOp op;
  uint8_t prec;
};

constexpr BinOpEntry kBinOps[] = {
    {Tok::kName, "or", BinOp::kOr, kOrPrec},
    {Tok::kName, "and", BinOp::kAnd, kAndPrec},
    {Tok::kEq, {}, BinOp::kGenEq, kCmpPrec},
    {Tok::kNe, {}, BinOp::kGenNe, kCmpPrec},
    {Tok::kLt, {}, BinOp::kGenLt, kCmpPrec},
    {Tok::kLe, {}, BinOp::kGenLe, kCmpPrec},
    {Tok::kGt, {}, BinOp::kGenGt, kCmpPrec},
    {Tok::kGe, {}, BinOp::kGenGe, kCmpPrec},
    {Tok::kLtLt, {}, BinOp::kBefore, kCmpPrec},
    {Tok::kGtGt, {}, BinOp::kAfter, kCmpPrec},
    {Tok::kName, "eq", BinOp::kValEq, kCmpPrec},
    {Tok::kName, "ne", BinOp::kValNe, kCmpPrec},
    {Tok::kName, "lt", BinOp::kValLt, kCmpPrec},
    {Tok::kName, "le", BinOp::kValLe, kCmpPrec},
    {Tok::kName, "gt", BinOp::kValGt, kCmpPrec},
    {Tok::kName, "ge", BinOp::kValGe, kCmpPrec},
    {Tok::kName, "is", BinOp::kIs, kCmpPrec},
    {Tok::kPlus, {}, BinOp::kAdd, kAddPrec},
    {Tok::kMinus, {}, BinOp::kSub, kAddPrec},
    {Tok::kStar, {}, BinOp::kMul, kMulPrec},
    {Tok::kName, "div", BinOp::kDiv, kMulPrec},
    {Tok::kName, "idiv", BinOp::kIdiv, kMulPrec},
    {Tok::kName, "mod", BinOp::kMod, kMulPrec},
    {Tok::kPipe, {}, BinOp::kUnion, kUnionPrec},
    {Tok::kName, "union", BinOp::kUnion, kUnionPrec},
};

class Parser {
 public:
  explicit Parser(std::string_view query) : lex_(query) {}

  Result<Module> ParseModule() {
    PF_RETURN_NOT_OK(lex_.Advance());
    Module mod;
    while (IsKw("declare")) {
      PF_RETURN_NOT_OK(lex_.Advance());
      if (!IsKw("function")) {
        return lex_.Error("only 'declare function' is supported");
      }
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_ASSIGN_OR_RETURN(Function f, ParseFunctionDecl());
      mod.functions.push_back(std::move(f));
    }
    PF_ASSIGN_OR_RETURN(mod.body, ParseExpr());
    if (lex_.Cur().kind != Tok::kEof) {
      return lex_.Error("unexpected trailing input ('" +
                        std::string(TokName(lex_.Cur().kind)) + "')");
    }
    return mod;
  }

 private:
  // --- token helpers ---------------------------------------------------

  bool Is(Tok t) const { return lex_.Cur().kind == t; }
  bool IsKw(std::string_view kw) const {
    return lex_.Cur().kind == Tok::kName && lex_.Cur().text == kw;
  }

  Status Expect(Tok t, const std::string& what) {
    if (!Is(t)) {
      return lex_.Error("expected " + what + ", found '" +
                        std::string(TokName(lex_.Cur().kind)) + "'");
    }
    return lex_.Advance();
  }

  Status ExpectKw(std::string_view kw) {
    if (!IsKw(kw)) {
      return lex_.Error("expected '" + std::string(kw) + "'");
    }
    return lex_.Advance();
  }

  /// Peek at the token after the current one.
  Result<Token> PeekNext() {
    Lexer saved = lex_;
    PF_RETURN_NOT_OK(lex_.Advance());
    Token t = lex_.Cur();
    lex_ = saved;
    return t;
  }

  Result<std::string> ParseVarName() {
    PF_RETURN_NOT_OK(Expect(Tok::kDollar, "'$'"));
    if (!Is(Tok::kName)) return lex_.Error("expected variable name");
    std::string name = lex_.Cur().text;
    PF_RETURN_NOT_OK(lex_.Advance());
    return name;
  }

  ExprPtr New(ExprKind k, std::vector<ExprPtr> children = {}) {
    ExprPtr e = MakeExpr(k, std::move(children));
    e->line = lex_.Cur().line;
    return e;
  }

  /// Sets e's height (Expr::height) once all its parts are in place;
  /// kNotSupported past kMaxNestingDepth. Every node with parts is
  /// sealed as it is completed, so no taller tree is ever built.
  Status Seal(Expr* e) const {
    uint32_t h = 0;
    auto part = [&h](const ExprPtr& p) {
      if (p) h = std::max(h, p->height + 1);
    };
    for (const ExprPtr& c : e->children) part(c);
    for (const ExprPtr& p : e->preds) part(p);
    part(e->where);
    for (const ForLetClause& c : e->clauses) part(c.expr);
    for (const OrderKey& k : e->order_keys) part(k.key);
    for (const TypeCase& c : e->cases) part(c.body);
    h += static_cast<uint32_t>(e->preds.size());
    if (!e->clauses.empty()) {
      h += static_cast<uint32_t>(e->clauses.size() - 1);
    }
    e->height = h;
    return h > static_cast<uint32_t>(kMaxNestingDepth) ? TooDeep()
                                                        : Status::OK();
  }

  // --- prolog ----------------------------------------------------------

  Result<Function> ParseFunctionDecl() {
    if (!Is(Tok::kName)) return lex_.Error("expected function name");
    Function f;
    f.name = lex_.Cur().text;
    PF_RETURN_NOT_OK(lex_.Advance());
    PF_RETURN_NOT_OK(Expect(Tok::kLParen, "'('"));
    if (!Is(Tok::kRParen)) {
      for (;;) {
        PF_ASSIGN_OR_RETURN(std::string p, ParseVarName());
        // Optional "as <type>" annotations are accepted and ignored
        // (the engine is dynamically typed).
        if (IsKw("as")) {
          PF_RETURN_NOT_OK(lex_.Advance());
          PF_RETURN_NOT_OK(SkipSequenceType());
        }
        f.params.push_back(std::move(p));
        if (!Is(Tok::kComma)) break;
        PF_RETURN_NOT_OK(lex_.Advance());
      }
    }
    PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
    if (IsKw("as")) {
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_RETURN_NOT_OK(SkipSequenceType());
    }
    PF_RETURN_NOT_OK(Expect(Tok::kLBrace, "'{'"));
    PF_ASSIGN_OR_RETURN(f.body, ParseExpr());
    PF_RETURN_NOT_OK(Expect(Tok::kRBrace, "'}'"));
    PF_RETURN_NOT_OK(Expect(Tok::kSemicolon, "';' after declaration"));
    return f;
  }

  /// Skip a SequenceType annotation: name optionally followed by "()"
  /// and an occurrence indicator (? * +).
  Status SkipSequenceType() {
    if (!Is(Tok::kName)) return lex_.Error("expected type name");
    PF_RETURN_NOT_OK(lex_.Advance());
    if (Is(Tok::kLParen)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      if (Is(Tok::kName)) PF_RETURN_NOT_OK(lex_.Advance());
      PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
    }
    if (Is(Tok::kQuestion) || Is(Tok::kStar) || Is(Tok::kPlus)) {
      PF_RETURN_NOT_OK(lex_.Advance());
    }
    return Status::OK();
  }

  // --- expressions -----------------------------------------------------

  Result<ExprPtr> ParseExpr() {
    PF_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
    if (!Is(Tok::kComma)) return first;
    ExprPtr seq = New(ExprKind::kSequence, {first});
    while (Is(Tok::kComma)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
      seq->children.push_back(next);
    }
    PF_RETURN_NOT_OK(Seal(seq.get()));
    return seq;
  }

  /// Counts one level of a self-recursive entry point for as long as
  /// the frame is open; `ok()` is false past kMaxNestingDepth.
  class DepthGuard {
   public:
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    bool ok() const { return *depth_ <= kMaxNestingDepth + 1; }

   private:
    int* depth_;
  };

  Status TooDeep() const {
    return Status::NotSupported("query nesting deeper than " +
                                std::to_string(kMaxNestingDepth) +
                                " levels");
  }

  Result<ExprPtr> ParseExprSingle() {
    DepthGuard guard(&depth_);
    if (!guard.ok()) return TooDeep();
    if ((IsKw("for") || IsKw("let")) && NextIs(Tok::kDollar)) {
      return ParseFlwor();
    }
    if (IsKw("if") && NextIs(Tok::kLParen)) return ParseIf();
    if (IsKw("typeswitch") && NextIs(Tok::kLParen)) return ParseTypeswitch();
    if ((IsKw("some") || IsKw("every")) && NextIs(Tok::kDollar)) {
      return ParseQuantified(IsKw("some"));
    }
    return ParseBinary(kOrPrec);
  }

  bool NextIs(Tok t) {
    auto nt = PeekNext();
    return nt.ok() && nt->kind == t;
  }

  Result<ExprPtr> ParseFlwor() {
    ExprPtr flwor = New(ExprKind::kFlwor);
    for (;;) {
      if (IsKw("for") && NextIs(Tok::kDollar)) {
        PF_RETURN_NOT_OK(lex_.Advance());
        for (;;) {
          ForLetClause c;
          c.is_let = false;
          PF_ASSIGN_OR_RETURN(c.var, ParseVarName());
          if (IsKw("at")) {
            PF_RETURN_NOT_OK(lex_.Advance());
            PF_ASSIGN_OR_RETURN(c.pos_var, ParseVarName());
          }
          if (IsKw("as")) {
            PF_RETURN_NOT_OK(lex_.Advance());
            PF_RETURN_NOT_OK(SkipSequenceType());
          }
          PF_RETURN_NOT_OK(ExpectKw("in"));
          PF_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
          flwor->clauses.push_back(std::move(c));
          if (!Is(Tok::kComma)) break;
          PF_RETURN_NOT_OK(lex_.Advance());
        }
        continue;
      }
      if (IsKw("let") && NextIs(Tok::kDollar)) {
        PF_RETURN_NOT_OK(lex_.Advance());
        for (;;) {
          ForLetClause c;
          c.is_let = true;
          PF_ASSIGN_OR_RETURN(c.var, ParseVarName());
          if (IsKw("as")) {
            PF_RETURN_NOT_OK(lex_.Advance());
            PF_RETURN_NOT_OK(SkipSequenceType());
          }
          PF_RETURN_NOT_OK(Expect(Tok::kColonEq, "':='"));
          PF_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
          flwor->clauses.push_back(std::move(c));
          if (!Is(Tok::kComma)) break;
          PF_RETURN_NOT_OK(lex_.Advance());
        }
        continue;
      }
      break;
    }
    if (flwor->clauses.empty()) {
      return lex_.Error("FLWOR needs at least one for/let clause");
    }
    if (IsKw("where")) {
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_ASSIGN_OR_RETURN(flwor->where, ParseExprSingle());
    }
    if (IsKw("order")) {
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_RETURN_NOT_OK(ExpectKw("by"));
      for (;;) {
        OrderKey k;
        PF_ASSIGN_OR_RETURN(k.key, ParseExprSingle());
        if (IsKw("ascending")) {
          PF_RETURN_NOT_OK(lex_.Advance());
        } else if (IsKw("descending")) {
          k.ascending = false;
          PF_RETURN_NOT_OK(lex_.Advance());
        }
        if (IsKw("empty")) {  // "empty greatest/least": accepted, ignored
          PF_RETURN_NOT_OK(lex_.Advance());
          PF_RETURN_NOT_OK(lex_.Advance());
        }
        flwor->order_keys.push_back(std::move(k));
        if (!Is(Tok::kComma)) break;
        PF_RETURN_NOT_OK(lex_.Advance());
      }
    }
    PF_RETURN_NOT_OK(ExpectKw("return"));
    PF_ASSIGN_OR_RETURN(ExprPtr ret, ParseExprSingle());
    flwor->children.push_back(ret);
    PF_RETURN_NOT_OK(Seal(flwor.get()));
    return flwor;
  }

  Result<ExprPtr> ParseIf() {
    PF_RETURN_NOT_OK(lex_.Advance());  // if
    PF_RETURN_NOT_OK(Expect(Tok::kLParen, "'('"));
    PF_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
    PF_RETURN_NOT_OK(ExpectKw("then"));
    PF_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExprSingle());
    PF_RETURN_NOT_OK(ExpectKw("else"));
    PF_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExprSingle());
    ExprPtr e = New(ExprKind::kIf, {cond, then_e, else_e});
    PF_RETURN_NOT_OK(Seal(e.get()));
    return e;
  }

  Result<ExprPtr> ParseTypeswitch() {
    PF_RETURN_NOT_OK(lex_.Advance());  // typeswitch
    PF_RETURN_NOT_OK(Expect(Tok::kLParen, "'('"));
    PF_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
    PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
    ExprPtr ts = New(ExprKind::kTypeswitch, {operand});
    bool saw_default = false;
    while (IsKw("case") || IsKw("default")) {
      TypeCase tc;
      bool is_default = IsKw("default");
      PF_RETURN_NOT_OK(lex_.Advance());
      if (Is(Tok::kDollar)) {
        PF_ASSIGN_OR_RETURN(tc.var, ParseVarName());
        if (!is_default) PF_RETURN_NOT_OK(ExpectKw("as"));
      }
      if (!is_default) {
        PF_RETURN_NOT_OK(ParseCaseType(&tc));
      } else {
        tc.type = TypeCase::Type::kDefault;
        saw_default = true;
      }
      PF_RETURN_NOT_OK(ExpectKw("return"));
      PF_ASSIGN_OR_RETURN(tc.body, ParseExprSingle());
      ts->cases.push_back(std::move(tc));
      if (is_default) break;
    }
    if (!saw_default) {
      return lex_.Error("typeswitch requires a default clause");
    }
    PF_RETURN_NOT_OK(Seal(ts.get()));
    return ts;
  }

  Status ParseCaseType(TypeCase* tc) {
    if (!Is(Tok::kName)) return lex_.Error("expected type in case clause");
    std::string name = lex_.Cur().text;
    PF_RETURN_NOT_OK(lex_.Advance());
    if (Is(Tok::kLParen)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      if (Is(Tok::kName)) {
        tc->elem_name = lex_.Cur().text;
        PF_RETURN_NOT_OK(lex_.Advance());
      }
      PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
      if (name == "element") {
        tc->type = TypeCase::Type::kElement;
      } else if (name == "attribute") {
        tc->type = TypeCase::Type::kAttribute;
      } else if (name == "text") {
        tc->type = TypeCase::Type::kText;
      } else if (name == "node") {
        tc->type = TypeCase::Type::kNode;
      } else {
        return lex_.Error("unsupported kind test '" + name + "'");
      }
    } else {
      if (name == "xs:integer" || name == "xs:int" || name == "xs:long") {
        tc->type = TypeCase::Type::kInteger;
      } else if (name == "xs:double" || name == "xs:decimal" ||
                 name == "xs:float") {
        tc->type = TypeCase::Type::kDouble;
      } else if (name == "xs:string" || name == "xs:untypedAtomic") {
        tc->type = TypeCase::Type::kString;
      } else if (name == "xs:boolean") {
        tc->type = TypeCase::Type::kBoolean;
      } else {
        return lex_.Error("unsupported case type '" + name + "'");
      }
    }
    // Occurrence indicator on the case type.
    if (Is(Tok::kQuestion) || Is(Tok::kStar) || Is(Tok::kPlus)) {
      PF_RETURN_NOT_OK(lex_.Advance());
    }
    return Status::OK();
  }

  Result<ExprPtr> ParseQuantified(bool some) {
    PF_RETURN_NOT_OK(lex_.Advance());  // some/every
    // Only a single binding is supported (nested quantifiers express the
    // general case).
    ExprPtr q = New(some ? ExprKind::kSome : ExprKind::kEvery);
    PF_ASSIGN_OR_RETURN(q->sval, ParseVarName());
    PF_RETURN_NOT_OK(ExpectKw("in"));
    PF_ASSIGN_OR_RETURN(ExprPtr domain, ParseExprSingle());
    PF_RETURN_NOT_OK(ExpectKw("satisfies"));
    PF_ASSIGN_OR_RETURN(ExprPtr pred, ParseExprSingle());
    q->children = {domain, pred};
    PF_RETURN_NOT_OK(Seal(q.get()));
    return q;
  }

  /// The binary operator at the current token, or nullptr.
  const BinOpEntry* CurBinOp() const {
    const Token& t = lex_.Cur();
    for (const BinOpEntry& e : kBinOps) {
      if (e.tok == t.kind && (e.tok != Tok::kName || t.text == e.kw)) {
        return &e;
      }
    }
    return nullptr;
  }

  bool IsSign() const { return Is(Tok::kMinus) || Is(Tok::kPlus); }

  /// Binary operators by precedence climbing, as one loop: operands
  /// whose operator still waits for its right-hand side stay on an
  /// explicit stack of rising precedence, so an operand's nesting costs
  /// no frame here. All operators associate to the left except
  /// comparison, which does not associate: a second comparison ends the
  /// expression and the caller rejects the stray operator. Union's
  /// operands are paths, every other operand is a path or a signed
  /// operand; `min_prec` = kUnionPrec parses just a union expression (a
  /// sign's operand).
  Result<ExprPtr> ParseBinary(uint8_t min_prec) {
    struct Pending {
      ExprPtr lhs;
      const BinOpEntry* op;
    };
    Pending stack[kUnionPrec];
    size_t n = 0;
    bool comparing = false;  // a comparison waits on the stack
    ExprPtr rhs;
    PF_ASSIGN_OR_RETURN(
        rhs, min_prec < kUnionPrec && IsSign() ? ParseUnary() : ParsePath());
    for (;;) {
      const BinOpEntry* op = CurBinOp();
      if (op != nullptr &&
          (op->prec < min_prec || (op->prec == kCmpPrec && comparing))) {
        op = nullptr;
      }
      const uint8_t prec = op != nullptr ? op->prec : 0;
      while (n > 0 && stack[n - 1].op->prec >= prec) {
        Pending& p = stack[--n];
        if (p.op->prec == kCmpPrec) comparing = false;
        ExprPtr e = New(ExprKind::kBinOp, {std::move(p.lhs), rhs});
        e->op = p.op->op;
        PF_RETURN_NOT_OK(Seal(e.get()));
        rhs = std::move(e);
      }
      if (op == nullptr) return rhs;
      if (prec == kCmpPrec) comparing = true;
      stack[n++] = {std::move(rhs), op};
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_ASSIGN_OR_RETURN(
          rhs, prec < kUnionPrec && IsSign() ? ParseUnary() : ParsePath());
    }
  }

  /// A signed operand; the current token is '-' or '+'. Each sign is
  /// one guarded level (a plain path is one level of the enclosing
  /// ParseExprSingle). The operand after the signs is a union
  /// expression: -a|b is -(a|b).
  Result<ExprPtr> ParseUnary() {
    DepthGuard guard(&depth_);
    if (!guard.ok()) return TooDeep();
    const bool minus = Is(Tok::kMinus);
    PF_RETURN_NOT_OK(lex_.Advance());
    PF_ASSIGN_OR_RETURN(ExprPtr operand,
                        IsSign() ? ParseUnary() : ParseBinary(kUnionPrec));
    if (!minus) return operand;
    ExprPtr e = New(ExprKind::kUnaryMinus, {operand});
    PF_RETURN_NOT_OK(Seal(e.get()));
    return e;
  }

  // --- paths -----------------------------------------------------------

  Result<ExprPtr> ParsePath() {
    ExprPtr ctx;
    if (Is(Tok::kSlash)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      ctx = New(ExprKind::kRootCtx);
      if (!StartsStep()) return ctx;  // lone "/"
      PF_ASSIGN_OR_RETURN(ctx, ParseStepExpr(ctx));
    } else if (Is(Tok::kSlashSlash)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      ExprPtr root = New(ExprKind::kRootCtx);
      ExprPtr ds = New(ExprKind::kAxisStep, {root});
      ds->axis = accel::Axis::kDescendantOrSelf;
      ds->test.kind = StepTest::Kind::kAnyKind;
      PF_RETURN_NOT_OK(Seal(ds.get()));
      PF_ASSIGN_OR_RETURN(ctx, ParseStepExpr(ds));
    } else {
      PF_ASSIGN_OR_RETURN(ctx, ParseStepExpr(nullptr));
    }
    for (;;) {
      if (Is(Tok::kSlash)) {
        PF_RETURN_NOT_OK(lex_.Advance());
        PF_ASSIGN_OR_RETURN(ctx, ParseStepExpr(ctx));
      } else if (Is(Tok::kSlashSlash)) {
        PF_RETURN_NOT_OK(lex_.Advance());
        ExprPtr ds = New(ExprKind::kAxisStep, {ctx});
        ds->axis = accel::Axis::kDescendantOrSelf;
        ds->test.kind = StepTest::Kind::kAnyKind;
        PF_RETURN_NOT_OK(Seal(ds.get()));
        PF_ASSIGN_OR_RETURN(ctx, ParseStepExpr(ds));
      } else {
        return ctx;
      }
    }
  }

  /// Can the current token begin a path step?
  bool StartsStep() {
    switch (lex_.Cur().kind) {
      case Tok::kName:
      case Tok::kAt:
      case Tok::kDot:
      case Tok::kDotDot:
      case Tok::kStar:
        return true;
      default:
        return false;
    }
  }

  /// Is the current token the start of a computed constructor
  /// (`element name {`, `element {`, `text {`)? Those must win over a
  /// name-test reading of "element"/"text".
  bool StartsComputedConstructor() {
    if (!Is(Tok::kName)) return false;
    const std::string& n = lex_.Cur().text;
    if (n == "text") return NextIs(Tok::kLBrace);
    if (n != "element") return false;
    if (NextIs(Tok::kLBrace)) return true;
    // element NAME { ... } needs two tokens of lookahead.
    Lexer saved = lex_;
    bool yes = false;
    if (lex_.Advance().ok() && lex_.Cur().kind == Tok::kName &&
        lex_.Advance().ok() && lex_.Cur().kind == Tok::kLBrace) {
      yes = true;
    }
    lex_ = saved;
    return yes;
  }

  /// Parse one step. `ctx == nullptr` means this is the first step of a
  /// relative path: primary expressions are allowed there.
  Result<ExprPtr> ParseStepExpr(ExprPtr ctx) {
    // Axis-qualified step: name::test.
    if (Is(Tok::kName) && NextIs(Tok::kColonColon)) {
      PF_ASSIGN_OR_RETURN(accel::Axis axis, ParseAxisName(lex_.Cur().text));
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_RETURN_NOT_OK(lex_.Advance());  // ::
      return ParseStepTail(ctx, axis);
    }
    if (Is(Tok::kAt)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      return ParseStepTail(ctx, accel::Axis::kAttribute);
    }
    if (Is(Tok::kDotDot)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      ExprPtr e = New(ExprKind::kAxisStep,
                      {ctx ? ctx : New(ExprKind::kContextItem)});
      e->axis = accel::Axis::kParent;
      e->test.kind = StepTest::Kind::kAnyKind;
      return ParsePredicates(e);
    }
    // Name test / kind test (child axis) — but a name followed by '(' is
    // a function call or kind test, and for the first step arbitrary
    // primaries are allowed.
    bool kind_test = false;
    if (Is(Tok::kName) && NextIs(Tok::kLParen)) {
      const std::string& t = lex_.Cur().text;
      kind_test = (t == "node" || t == "text" || t == "comment" ||
                   t == "processing-instruction");
    }
    if (((Is(Tok::kName) && !NextIs(Tok::kLParen)) || Is(Tok::kStar) ||
         kind_test) &&
        !StartsComputedConstructor()) {
      return ParseStepTail(ctx, accel::Axis::kChild);
    }
    // Primary expression step.
    PF_ASSIGN_OR_RETURN(ExprPtr prim, ParsePrimary());
    if (ctx) {
      return lex_.Error(
          "primary expression cannot follow '/' in a path");
    }
    // "(path)[p]" filters the whole sequence, unlike "path[p]" whose
    // predicate counts per context node. A parenthesized step therefore
    // must not expose its kAxisStep node to the predicate attachment:
    // wrap it so the normalizer applies sequence-filter semantics.
    if (prim->kind == ExprKind::kAxisStep && Is(Tok::kLBracket)) {
      prim = New(ExprKind::kSequence, {prim});
    }
    return ParsePredicates(prim);
  }

  Result<accel::Axis> ParseAxisName(const std::string& name) {
    if (name == "child") return accel::Axis::kChild;
    if (name == "descendant") return accel::Axis::kDescendant;
    if (name == "descendant-or-self") return accel::Axis::kDescendantOrSelf;
    if (name == "self") return accel::Axis::kSelf;
    if (name == "parent") return accel::Axis::kParent;
    if (name == "ancestor") return accel::Axis::kAncestor;
    if (name == "ancestor-or-self") return accel::Axis::kAncestorOrSelf;
    if (name == "following") return accel::Axis::kFollowing;
    if (name == "preceding") return accel::Axis::kPreceding;
    if (name == "following-sibling") return accel::Axis::kFollowingSibling;
    if (name == "preceding-sibling") return accel::Axis::kPrecedingSibling;
    if (name == "attribute") return accel::Axis::kAttribute;
    return lex_.Error("unknown axis '" + name + "'");
  }

  Result<ExprPtr> ParseStepTail(ExprPtr ctx, accel::Axis axis) {
    ExprPtr e =
        New(ExprKind::kAxisStep, {ctx ? ctx : New(ExprKind::kContextItem)});
    e->axis = axis;
    if (Is(Tok::kStar)) {
      e->test.kind = StepTest::Kind::kElement;
      PF_RETURN_NOT_OK(lex_.Advance());
    } else if (Is(Tok::kName)) {
      std::string name = lex_.Cur().text;
      if (NextIs(Tok::kLParen)) {
        PF_RETURN_NOT_OK(lex_.Advance());
        PF_RETURN_NOT_OK(lex_.Advance());  // (
        if (name == "node") {
          e->test.kind = StepTest::Kind::kAnyKind;
        } else if (name == "text") {
          e->test.kind = StepTest::Kind::kText;
        } else if (name == "comment") {
          e->test.kind = StepTest::Kind::kComment;
        } else if (name == "processing-instruction") {
          e->test.kind = StepTest::Kind::kPi;
          if (Is(Tok::kName) || Is(Tok::kStr)) {
            PF_RETURN_NOT_OK(lex_.Advance());  // PI target ignored
          }
        } else if (name == "element") {
          e->test.kind = StepTest::Kind::kElement;
          if (Is(Tok::kName)) {
            e->test.kind = StepTest::Kind::kName;
            e->test.name = lex_.Cur().text;
            PF_RETURN_NOT_OK(lex_.Advance());
          }
        } else {
          return lex_.Error("unknown kind test '" + name + "'");
        }
        PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
      } else {
        e->test.kind = StepTest::Kind::kName;
        e->test.name = name;
        PF_RETURN_NOT_OK(lex_.Advance());
      }
    } else {
      return lex_.Error("expected node test");
    }
    return ParsePredicates(e);
  }

  Result<ExprPtr> ParsePredicates(ExprPtr e) {
    while (Is(Tok::kLBracket)) {
      PF_RETURN_NOT_OK(lex_.Advance());
      PF_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      PF_RETURN_NOT_OK(Expect(Tok::kRBracket, "']'"));
      e->preds.push_back(pred);
    }
    PF_RETURN_NOT_OK(Seal(e.get()));
    return e;
  }

  // --- primaries -------------------------------------------------------

  /// The primaries that nest: parentheses, constructors and function
  /// calls. Everything else is ParseAtom's, whose locals therefore stay
  /// off the stack of a deeply nested query.
  Result<ExprPtr> ParsePrimary() {
    switch (lex_.Cur().kind) {
      case Tok::kLParen: {
        PF_RETURN_NOT_OK(lex_.Advance());
        if (Is(Tok::kRParen)) {
          PF_RETURN_NOT_OK(lex_.Advance());
          return New(ExprKind::kEmpty);
        }
        PF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
        return e;
      }
      case Tok::kDirectElemStart:
        return ParseDirectElem();
      case Tok::kName: {
        const std::string& name = lex_.Cur().text;
        // Computed constructors.
        if (name == "element" &&
            (NextIs(Tok::kLBrace) || NextIs(Tok::kName))) {
          return ParseComputedElem();
        }
        if (name == "text" && NextIs(Tok::kLBrace)) {
          return ParseComputedText();
        }
        if (NextIs(Tok::kLParen)) return ParseFunctionCall();
        break;
      }
      default:
        break;
    }
    return ParseAtom();
  }

  /// Literals, variables and '.'; any other token is an error here.
  Result<ExprPtr> ParseAtom() {
    switch (lex_.Cur().kind) {
      case Tok::kInt: {
        ExprPtr e = New(ExprKind::kIntLit);
        e->ival = lex_.Cur().ival;
        PF_RETURN_NOT_OK(lex_.Advance());
        return e;
      }
      case Tok::kDbl: {
        ExprPtr e = New(ExprKind::kDblLit);
        e->dval = lex_.Cur().dval;
        PF_RETURN_NOT_OK(lex_.Advance());
        return e;
      }
      case Tok::kStr: {
        ExprPtr e = New(ExprKind::kStrLit);
        e->sval = lex_.Cur().text;
        PF_RETURN_NOT_OK(lex_.Advance());
        return e;
      }
      case Tok::kDollar: {
        ExprPtr e = New(ExprKind::kVar);
        PF_ASSIGN_OR_RETURN(e->sval, ParseVarName());
        return e;
      }
      case Tok::kDot: {
        PF_RETURN_NOT_OK(lex_.Advance());
        return New(ExprKind::kContextItem);
      }
      case Tok::kName:
        return lex_.Error("unexpected name '" + lex_.Cur().text + "'");
      default:
        return lex_.Error("unexpected token '" +
                          std::string(TokName(lex_.Cur().kind)) + "'");
    }
  }

  Result<ExprPtr> ParseFunctionCall() {
    ExprPtr e = New(ExprKind::kFunCall);
    e->sval = CanonicalFunName(lex_.Cur().text);
    PF_RETURN_NOT_OK(lex_.Advance());
    PF_RETURN_NOT_OK(Expect(Tok::kLParen, "'('"));
    if (!Is(Tok::kRParen)) {
      for (;;) {
        PF_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
        e->children.push_back(arg);
        if (!Is(Tok::kComma)) break;
        PF_RETURN_NOT_OK(lex_.Advance());
      }
    }
    PF_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
    PF_RETURN_NOT_OK(Seal(e.get()));
    return e;
  }

  Result<ExprPtr> ParseComputedElem() {
    PF_RETURN_NOT_OK(lex_.Advance());  // element
    ExprPtr name_expr;
    if (Is(Tok::kName)) {
      name_expr = New(ExprKind::kStrLit);
      name_expr->sval = lex_.Cur().text;
      PF_RETURN_NOT_OK(lex_.Advance());
    } else {
      PF_RETURN_NOT_OK(Expect(Tok::kLBrace, "'{'"));
      PF_ASSIGN_OR_RETURN(name_expr, ParseExpr());
      PF_RETURN_NOT_OK(Expect(Tok::kRBrace, "'}'"));
    }
    PF_RETURN_NOT_OK(Expect(Tok::kLBrace, "'{'"));
    ExprPtr e = New(ExprKind::kElemConstr, {name_expr});
    if (!Is(Tok::kRBrace)) {
      PF_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
      e->children.push_back(content);
    }
    PF_RETURN_NOT_OK(Expect(Tok::kRBrace, "'}'"));
    PF_RETURN_NOT_OK(Seal(e.get()));
    return e;
  }

  Result<ExprPtr> ParseComputedText() {
    PF_RETURN_NOT_OK(lex_.Advance());  // text
    PF_RETURN_NOT_OK(Expect(Tok::kLBrace, "'{'"));
    PF_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
    PF_RETURN_NOT_OK(Expect(Tok::kRBrace, "'}'"));
    ExprPtr e = New(ExprKind::kTextConstr, {content});
    PF_RETURN_NOT_OK(Seal(e.get()));
    return e;
  }

  // --- direct constructors (raw scanning) -------------------------------

  static bool RawNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool RawNameChar(char c) {
    return RawNameStart(c) ||
           std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
           c == '.' || c == ':';
  }

  Result<std::string> RawReadName(size_t* p) {
    if (!RawNameStart(lex_.RawPeek(*p))) {
      return lex_.Error("expected name in direct constructor");
    }
    size_t start = *p;
    while (RawNameChar(lex_.RawPeek(*p))) ++*p;
    return std::string(lex_.RawSlice(start, *p));
  }

  void RawSkipWs(size_t* p) {
    while (std::isspace(static_cast<unsigned char>(lex_.RawPeek(*p)))) {
      ++*p;
    }
  }

  /// Parse `{ Expr }` starting at offset `*p` (which points at '{').
  /// Afterwards `*p` points just past the matching '}'.
  Result<ExprPtr> RawEnclosedExpr(size_t* p) {
    PF_RETURN_NOT_OK(lex_.SeekTo(*p));  // lexes '{'
    PF_RETURN_NOT_OK(Expect(Tok::kLBrace, "'{'"));
    PF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!Is(Tok::kRBrace)) return lex_.Error("expected '}'");
    *p = lex_.Cur().end;
    return e;
  }

  /// cur_ token is kDirectElemStart: '<' directly followed by a name.
  /// Raw-scan the whole constructor, then resume token mode after it.
  Result<ExprPtr> ParseDirectElem() {
    size_t p = lex_.Cur().end;  // offset of the tag name
    PF_ASSIGN_OR_RETURN(ExprPtr elem, ParseDirectElemAt(&p));
    PF_RETURN_NOT_OK(lex_.SeekTo(p));
    return elem;
  }

  Result<ExprPtr> ParseDirectElemAt(size_t* p) {
    DepthGuard guard(&depth_);
    if (!guard.ok()) return TooDeep();
    PF_ASSIGN_OR_RETURN(std::string tag, RawReadName(p));
    ExprPtr name_expr = MakeExpr(ExprKind::kStrLit);
    name_expr->sval = tag;
    ExprPtr elem = MakeExpr(ExprKind::kElemConstr, {name_expr});

    // Attributes.
    for (;;) {
      RawSkipWs(p);
      char c = lex_.RawPeek(*p);
      if (c == '/' || c == '>' || c == '\0') break;
      PF_ASSIGN_OR_RETURN(std::string aname, RawReadName(p));
      RawSkipWs(p);
      if (lex_.RawPeek(*p) != '=') {
        return lex_.Error("expected '=' in attribute");
      }
      ++*p;
      RawSkipWs(p);
      char quote = lex_.RawPeek(*p);
      if (quote != '"' && quote != '\'') {
        return lex_.Error("attribute value must be quoted");
      }
      ++*p;
      ExprPtr attr = MakeExpr(ExprKind::kAttrConstr);
      attr->sval = aname;
      std::string lit;
      auto flush_lit = [&]() -> Status {
        if (lit.empty()) return Status::OK();
        PF_ASSIGN_OR_RETURN(std::string decoded, xml::DecodeEntities(lit));
        ExprPtr part = MakeExpr(ExprKind::kStrLit);
        part->sval = decoded;
        attr->children.push_back(part);
        lit.clear();
        return Status::OK();
      };
      for (;;) {
        char d = lex_.RawPeek(*p);
        if (d == '\0') return lex_.Error("unterminated attribute value");
        if (d == quote) {
          if (lex_.RawPeek(*p + 1) == quote) {  // doubled quote
            lit += quote;
            *p += 2;
            continue;
          }
          ++*p;
          break;
        }
        if (d == '{') {
          if (lex_.RawPeek(*p + 1) == '{') {
            lit += '{';
            *p += 2;
            continue;
          }
          PF_RETURN_NOT_OK(flush_lit());
          PF_ASSIGN_OR_RETURN(ExprPtr e, RawEnclosedExpr(p));
          attr->children.push_back(e);
          continue;
        }
        if (d == '}') {
          if (lex_.RawPeek(*p + 1) == '}') {
            lit += '}';
            *p += 2;
            continue;
          }
          return lex_.Error("lone '}' in attribute value");
        }
        lit += d;
        ++*p;
      }
      PF_RETURN_NOT_OK(flush_lit());
      PF_RETURN_NOT_OK(Seal(attr.get()));
      elem->children.push_back(attr);
    }

    if (lex_.RawPeek(*p) == '/') {
      if (lex_.RawPeek(*p + 1) != '>') {
        return lex_.Error("expected '/>'");
      }
      *p += 2;
      PF_RETURN_NOT_OK(Seal(elem.get()));
      return elem;
    }
    if (lex_.RawPeek(*p) != '>') return lex_.Error("expected '>'");
    ++*p;

    // Content.
    std::string lit;
    auto flush_text = [&]() -> Status {
      if (lit.empty()) return Status::OK();
      // Boundary whitespace (whitespace-only runs between tags and
      // enclosed expressions) is stripped, per XQuery defaults.
      bool all_ws = true;
      for (char c : lit) {
        if (!std::isspace(static_cast<unsigned char>(c))) {
          all_ws = false;
          break;
        }
      }
      if (!all_ws) {
        PF_ASSIGN_OR_RETURN(std::string decoded, xml::DecodeEntities(lit));
        ExprPtr part = MakeExpr(ExprKind::kStrLit);
        part->sval = decoded;
        elem->children.push_back(part);
      }
      lit.clear();
      return Status::OK();
    };

    for (;;) {
      char c = lex_.RawPeek(*p);
      if (c == '\0') return lex_.Error("unterminated element <" + tag + ">");
      if (c == '{') {
        if (lex_.RawPeek(*p + 1) == '{') {
          lit += '{';
          *p += 2;
          continue;
        }
        PF_RETURN_NOT_OK(flush_text());
        PF_ASSIGN_OR_RETURN(ExprPtr e, RawEnclosedExpr(p));
        elem->children.push_back(e);
        continue;
      }
      if (c == '}') {
        if (lex_.RawPeek(*p + 1) == '}') {
          lit += '}';
          *p += 2;
          continue;
        }
        return lex_.Error("lone '}' in element content");
      }
      if (c == '<') {
        if (lex_.RawPeek(*p + 1) == '/') {
          PF_RETURN_NOT_OK(flush_text());
          *p += 2;
          PF_ASSIGN_OR_RETURN(std::string close, RawReadName(p));
          if (close != tag) {
            return lex_.Error("mismatched end tag </" + close + ">");
          }
          RawSkipWs(p);
          if (lex_.RawPeek(*p) != '>') return lex_.Error("expected '>'");
          ++*p;
          PF_RETURN_NOT_OK(Seal(elem.get()));
          return elem;
        }
        if (lex_.RawSlice(*p, std::min(*p + 4, lex_.InputSize())) ==
            "<!--") {
          PF_RETURN_NOT_OK(flush_text());
          *p += 4;
          while (!lex_.RawAtEnd(*p) &&
                 lex_.RawSlice(*p, std::min(*p + 3, lex_.InputSize())) !=
                     "-->") {
            ++*p;
          }
          if (lex_.RawAtEnd(*p)) {
            return lex_.Error("unterminated comment");
          }
          *p += 3;
          continue;
        }
        if (RawNameStart(lex_.RawPeek(*p + 1))) {
          PF_RETURN_NOT_OK(flush_text());
          ++*p;
          PF_ASSIGN_OR_RETURN(ExprPtr child, ParseDirectElemAt(p));
          elem->children.push_back(child);
          continue;
        }
        return lex_.Error("unexpected '<' in element content");
      }
      lit += c;
      ++*p;
    }
  }

  Lexer lex_;
  int depth_ = 0;  // guarded frames open (see DepthGuard)
};

}  // namespace

Result<Module> ParseQuery(std::string_view query) {
  Parser parser(query);
  return parser.ParseModule();
}

}  // namespace pathfinder::frontend
