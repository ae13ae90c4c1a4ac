#ifndef PATHFINDER_FRONTEND_AST_H_
#define PATHFINDER_FRONTEND_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "accel/axis.h"

namespace pathfinder::frontend {

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Expression kinds. The parser produces the full set; the normalizer
/// (normalize.h) lowers surface sugar so that the compiler only sees the
/// Core subset documented per kind below.
enum class ExprKind : uint8_t {
  kIntLit,       // ival
  kDblLit,       // dval
  kStrLit,       // sval
  kEmpty,        // ()
  kSequence,     // (e1, e2, ...): children
  kVar,          // $sval
  kContextItem,  // "."            [normalized away]
  kRootCtx,      // leading "/"    [normalized to fn:root of context doc]
  kFlwor,        // clauses / where / order_keys / children[0] = return
  kIf,           // children: cond, then, else
  kTypeswitch,   // children[0] = operand; cases
  kBinOp,        // op; children: lhs, rhs
  kUnaryMinus,   // children[0]
  kAxisStep,     // children[0] = context; axis, test, preds
                 //   [Core: context is always kVar, preds empty]
  kFunCall,      // sval = function name; children = args
                 //   [Core: built-ins only; UDFs are inlined]
  kElemConstr,   // children[0] = name expr; children[1..] = content
  kAttrConstr,   // sval = attribute name; children = value parts
                 //   (only valid directly inside kElemConstr content)
  kTextConstr,   // children[0] = content expr
  kDdo,          // fs:distinct-doc-order(children[0])
  kSome,         // sval = var; children: domain, satisfies   [normalized]
  kEvery,        // likewise                                  [normalized]
};

const char* ExprKindName(ExprKind k);

/// Binary operators (surface + core).
enum class BinOp : uint8_t {
  kOr,
  kAnd,
  // General comparisons (existential over sequences).
  kGenEq,
  kGenNe,
  kGenLt,
  kGenLe,
  kGenGt,
  kGenGe,
  // Value comparisons (singleton operands).
  kValEq,
  kValNe,
  kValLt,
  kValLe,
  kValGt,
  kValGe,
  kIs,      // node identity
  kBefore,  // <<
  kAfter,   // >>
  kAdd,
  kSub,
  kMul,
  kDiv,
  kIdiv,
  kMod,
  kUnion,   // | on node sequences
};

const char* BinOpName(BinOp op);

/// Node test with the name still a string (interning happens when the
/// compiler sees the target database's pool).
struct StepTest {
  enum class Kind : uint8_t {
    kAnyKind,
    kElement,
    kText,
    kComment,
    kPi,
    kName
  };
  Kind kind = Kind::kAnyKind;
  std::string name;

  std::string ToString() const;
};

/// One for/let clause of a FLWOR.
struct ForLetClause {
  bool is_let = false;
  std::string var;
  std::string pos_var;  // "at $p" (for clauses only; empty if absent)
  ExprPtr expr;
};

/// One "order by" key.
struct OrderKey {
  ExprPtr key;
  bool ascending = true;
};

/// One typeswitch case. Matches on the dynamic kind of a singleton.
struct TypeCase {
  enum class Type : uint8_t {
    kElement,   // element() / element(name)
    kAttribute, // attribute()
    kText,      // text()
    kNode,      // node()
    kInteger,   // xs:integer
    kDouble,    // xs:double / xs:decimal
    kString,    // xs:string
    kBoolean,   // xs:boolean
    kDefault,   // default branch
  };
  Type type = Type::kDefault;
  std::string elem_name;  // optional name for element(name)
  std::string var;        // optional "case $v as ..."
  ExprPtr body;
};

/// AST node. One plain struct for all phases (cf. algebra::Op): plans
/// and ASTs are small, uniformity beats per-kind classes for rewriting.
struct Expr {
  ExprKind kind;
  std::vector<ExprPtr> children;

  int64_t ival = 0;
  double dval = 0;
  std::string sval;

  BinOp op = BinOp::kOr;

  accel::Axis axis = accel::Axis::kChild;
  StepTest test;
  std::vector<ExprPtr> preds;

  std::vector<ForLetClause> clauses;
  ExprPtr where;
  std::vector<OrderKey> order_keys;

  std::vector<TypeCase> cases;

  int line = 0;
  /// Nesting levels below this node, as the parser counts them: 0 for a
  /// leaf, else one more than its tallest part, plus one per predicate
  /// and per for/let clause after the first (later passes nest each of
  /// those around what precedes it). Set by the parser, which rejects a
  /// tree taller than its nesting limit, so every recursive pass over a
  /// parsed query stays within a thread's stack; nodes built after
  /// parsing leave it 0.
  uint32_t height = 0;
};

ExprPtr MakeExpr(ExprKind kind, std::vector<ExprPtr> children = {});

/// Pretty-print an expression tree (the demo's "XQuery Core equivalent"
/// output, paper Sec. 4).
std::string ExprToString(const ExprPtr& e, int indent = 0);

/// A user-defined function: declare function local:f($a, $b) { body }.
struct Function {
  std::string name;
  std::vector<std::string> params;
  ExprPtr body;
};

/// A parsed query module: function declarations plus the main body.
struct Module {
  std::vector<Function> functions;
  ExprPtr body;
};

}  // namespace pathfinder::frontend

#endif  // PATHFINDER_FRONTEND_AST_H_
