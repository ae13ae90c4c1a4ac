#include "baseline/interp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include <unordered_map>

#include "accel/step.h"
#include "baseline/dom.h"
#include "baseline/node_build.h"
#include "bat/item_ops.h"
#include "frontend/normalize.h"
#include "frontend/parser.h"
#include "runtime/serialize.h"

namespace pathfinder::baseline {

namespace {

using frontend::BinOp;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;
using Seq = std::vector<Item>;

class Interp {
 public:
  explicit Interp(engine::QueryContext* ctx) : ctx_(ctx) {}

  Result<Seq> Eval(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kIntLit:
        return Seq{Item::Int(e->ival)};
      case ExprKind::kDblLit:
        return Seq{Item::Dbl(e->dval)};
      case ExprKind::kStrLit:
        return Seq{Item::Str(ctx_->pool()->Intern(e->sval))};
      case ExprKind::kEmpty:
        return Seq{};
      case ExprKind::kSequence: {
        Seq out;
        for (const auto& c : e->children) {
          PF_ASSIGN_OR_RETURN(Seq s, Eval(c));
          out.insert(out.end(), s.begin(), s.end());
        }
        return out;
      }
      case ExprKind::kVar: {
        auto it = env_.find(e->sval);
        if (it == env_.end()) {
          return Status::Internal("baseline: unbound variable $" + e->sval);
        }
        return it->second;
      }
      case ExprKind::kFlwor:
        return EvalFlwor(e);
      case ExprKind::kIf: {
        PF_ASSIGN_OR_RETURN(bool c, Ebv(e->children[0]));
        return Eval(e->children[c ? 1 : 2]);
      }
      case ExprKind::kTypeswitch:
        return EvalTypeswitch(e);
      case ExprKind::kBinOp:
        return EvalBinOp(e);
      case ExprKind::kUnaryMinus: {
        PF_ASSIGN_OR_RETURN(Seq s, Eval(e->children[0]));
        Seq out;
        for (const Item& it : s) {
          PF_ASSIGN_OR_RETURN(Item a, Atomize(it));
          if (a.kind == ItemKind::kInt) {
            out.push_back(Item::Int(-a.AsInt()));
          } else {
            PF_ASSIGN_OR_RETURN(double d,
                                bat::ItemToDouble(a, *ctx_->pool()));
            out.push_back(Item::Dbl(-d));
          }
        }
        return out;
      }
      case ExprKind::kAxisStep: {
        PF_ASSIGN_OR_RETURN(Seq ctxseq, Eval(e->children[0]));
        accel::NodeTest test = MakeTest(e->test);
        Seq out;
        std::vector<DomNode*> res;
        for (const Item& c : ctxseq) {
          if (!c.IsNode()) {
            return Status::TypeError(
                "baseline: path step on an atomic value");
          }
          Dom* dom = GetDom(c.NodeFrag());
          res.clear();
          DomStep(dom->node(c.NodePre()), e->axis, test, &res);
          for (DomNode* n : res) {
            out.push_back(n->kind == xml::NodeKind::kAttr
                              ? Item::Attr(c.NodeFrag(), n->pre)
                              : Item::Node(c.NodeFrag(), n->pre));
          }
        }
        return out;
      }
      case ExprKind::kFunCall:
        return EvalCall(e);
      case ExprKind::kElemConstr:
        return EvalElem(e);
      case ExprKind::kAttrConstr: {
        PF_ASSIGN_OR_RETURN(std::string v, PartsToString(e->children));
        return Seq{BuildAttribute(ctx_, e->sval, v)};
      }
      case ExprKind::kTextConstr: {
        PF_ASSIGN_OR_RETURN(Seq s, Eval(e->children[0]));
        PF_ASSIGN_OR_RETURN(std::string v, SeqToString(s));
        return Seq{BuildText(ctx_, v)};
      }
      case ExprKind::kDdo: {
        PF_ASSIGN_OR_RETURN(Seq s, Eval(e->children[0]));
        // Same ordering as the relational ddo (Distinct + RowNum over
        // ItemOrder): document order for nodes.
        std::stable_sort(s.begin(), s.end(),
                         [this](const Item& a, const Item& b) {
                           int c = bat::ItemOrder(a, b, *ctx_->pool());
                           if (c != 0) return c < 0;
                           return a.kind < b.kind;
                         });
        s.erase(std::unique(s.begin(), s.end(),
                            [this](const Item& a, const Item& b) {
                              return a == b;
                            }),
                s.end());
        return s;
      }
      default:
        return Status::Internal(
            std::string("baseline: unexpected core node ") +
            frontend::ExprKindName(e->kind));
    }
  }

 private:
  accel::NodeTest MakeTest(const frontend::StepTest& t) {
    using K = frontend::StepTest::Kind;
    switch (t.kind) {
      case K::kAnyKind:
        return accel::NodeTest::AnyKind();
      case K::kElement:
        return accel::NodeTest::Element();
      case K::kText:
        return accel::NodeTest::Text();
      case K::kComment:
        return accel::NodeTest::Comment();
      case K::kPi:
        return accel::NodeTest::Pi();
      case K::kName:
        return accel::NodeTest::Name(ctx_->pool()->Intern(t.name));
    }
    return accel::NodeTest::AnyKind();
  }

  /// DOMs are materialized lazily, once per fragment, and navigated by
  /// pointer from then on — the baseline never touches the accelerator
  /// encoding after this point.
  Dom* GetDom(uint32_t frag) {
    auto it = doms_.find(frag);
    if (it != doms_.end()) return it->second.get();
    auto dom = std::make_unique<Dom>(ctx_->doc(frag));
    Dom* ptr = dom.get();
    doms_.emplace(frag, std::move(dom));
    return ptr;
  }

  Result<Item> Atomize(const Item& it) {
    if (!it.IsNode()) return it;
    Dom* dom = GetDom(it.NodeFrag());
    return Item::Untyped(ctx_->pool()->Intern(
        DomStringValue(dom->node(it.NodePre()), *ctx_->pool())));
  }

  Result<std::string> ItemString(const Item& it) {
    if (it.IsNode()) {
      Dom* dom = GetDom(it.NodeFrag());
      return DomStringValue(dom->node(it.NodePre()), *ctx_->pool());
    }
    PF_ASSIGN_OR_RETURN(StrId s, bat::ItemToString(it, ctx_->pool()));
    return std::string(ctx_->pool()->Get(s));
  }

  Result<std::string> SeqToString(const Seq& s) {
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
      PF_ASSIGN_OR_RETURN(std::string v, ItemString(s[i]));
      if (i) out += ' ';
      out += v;
    }
    return out;
  }

  Result<std::string> PartsToString(const std::vector<ExprPtr>& parts) {
    std::string out;
    for (const auto& p : parts) {
      PF_ASSIGN_OR_RETURN(Seq s, Eval(p));
      // Attribute value parts concatenate without separators between
      // parts; items within one enclosed expression join with spaces.
      PF_ASSIGN_OR_RETURN(std::string v, SeqToString(s));
      out += v;
    }
    return out;
  }

  /// Effective boolean value, matching the relational engine's
  /// existential rule: true iff some item is truthy (nodes are truthy).
  Result<bool> Ebv(const ExprPtr& e) {
    PF_ASSIGN_OR_RETURN(Seq s, Eval(e));
    for (const Item& it : s) {
      PF_ASSIGN_OR_RETURN(bool b, bat::ItemToBool(it, *ctx_->pool()));
      if (b) return true;
    }
    return false;
  }

  using OrderedChunks = std::vector<std::pair<std::vector<Item>, Seq>>;

  Result<Seq> EvalFlwor(const ExprPtr& e) {
    if (e->order_keys.empty()) {
      Seq out;
      PF_RETURN_NOT_OK(FlworClause(e, 0, &out, nullptr));
      return out;
    }
    // Ordered FLWOR: collect (keys, result chunk) per binding tuple,
    // stable-sort by the keys, then concatenate.
    OrderedChunks chunks;
    Seq unused;
    PF_RETURN_NOT_OK(FlworClause(e, 0, &unused, &chunks));
    std::stable_sort(
        chunks.begin(), chunks.end(),
        [this, &e](const auto& a, const auto& b) {
          for (size_t i = 0; i < a.first.size(); ++i) {
            int c = bat::ItemOrder(a.first[i], b.first[i], *ctx_->pool());
            if (!e->order_keys[i].ascending) c = -c;
            if (c != 0) return c < 0;
          }
          return false;
        });
    Seq res;
    for (auto& [keys, chunk] : chunks) {
      res.insert(res.end(), chunk.begin(), chunk.end());
    }
    return res;
  }

  /// Nested-loop FLWOR evaluation — one recursive call per clause, one
  /// iteration per binding (the navigational engine's defining trait).
  /// `chunks` is non-null for the ordering pass of THIS flwor only;
  /// nested FLWORs inside clause/return expressions are unaffected.
  Status FlworClause(const ExprPtr& e, size_t ci, Seq* out,
                     OrderedChunks* chunks) {
    if (ci == e->clauses.size()) {
      if (e->where) {
        PF_ASSIGN_OR_RETURN(bool keep, Ebv(e->where));
        if (!keep) return Status::OK();
      }
      if (chunks != nullptr) {
        std::vector<Item> keys;
        for (const auto& k : e->order_keys) {
          PF_ASSIGN_OR_RETURN(Seq ks, Eval(k.key));
          if (ks.empty()) {
            keys.push_back(Item::Bool(false));  // empty least
          } else {
            PF_ASSIGN_OR_RETURN(Item a, Atomize(ks[0]));
            keys.push_back(a);
          }
        }
        PF_ASSIGN_OR_RETURN(Seq r, Eval(e->children[0]));
        chunks->emplace_back(std::move(keys), std::move(r));
        return Status::OK();
      }
      PF_ASSIGN_OR_RETURN(Seq r, Eval(e->children[0]));
      out->insert(out->end(), r.begin(), r.end());
      return Status::OK();
    }
    const frontend::ForLetClause& c = e->clauses[ci];
    PF_ASSIGN_OR_RETURN(Seq dom, Eval(c.expr));
    if (c.is_let) {
      ScopedBind bind(this, c.var, std::move(dom));
      return FlworClause(e, ci + 1, out, chunks);
    }
    for (size_t i = 0; i < dom.size(); ++i) {
      ScopedBind bind(this, c.var, Seq{dom[i]});
      std::unique_ptr<ScopedBind> posbind;
      if (!c.pos_var.empty()) {
        posbind = std::make_unique<ScopedBind>(
            this, c.pos_var, Seq{Item::Int(static_cast<int64_t>(i + 1))});
      }
      PF_RETURN_NOT_OK(FlworClause(e, ci + 1, out, chunks));
    }
    return Status::OK();
  }

  Result<Seq> EvalTypeswitch(const ExprPtr& e) {
    PF_ASSIGN_OR_RETURN(Seq s, Eval(e->children[0]));
    for (const auto& c : e->cases) {
      bool match = false;
      if (c.type == frontend::TypeCase::Type::kDefault) {
        match = true;
      } else if (!s.empty()) {
        match = MatchCase(s[0], c);
      }
      if (!match) continue;
      if (!c.var.empty()) {
        ScopedBind bind(this, c.var, s);
        return Eval(c.body);
      }
      return Eval(c.body);
    }
    return Seq{};
  }

  bool MatchCase(const Item& it, const frontend::TypeCase& c) {
    using T = frontend::TypeCase::Type;
    switch (c.type) {
      case T::kNode:
        return it.IsNode();
      case T::kAttribute:
        return it.kind == ItemKind::kAttr;
      case T::kElement: {
        if (it.kind != ItemKind::kNode) return false;
        const xml::Document& d = ctx_->doc(it.NodeFrag());
        if (d.kind(it.NodePre()) != xml::NodeKind::kElem) return false;
        if (c.elem_name.empty()) return true;
        return ctx_->pool()->Get(d.prop(it.NodePre())) == c.elem_name;
      }
      case T::kText:
        return it.kind == ItemKind::kNode &&
               ctx_->doc(it.NodeFrag()).kind(it.NodePre()) ==
                   xml::NodeKind::kText;
      case T::kInteger:
        return it.kind == ItemKind::kInt;
      case T::kDouble:
        return it.kind == ItemKind::kDbl;
      case T::kString:
        return it.IsStringLike();
      case T::kBoolean:
        return it.kind == ItemKind::kBool;
      case T::kDefault:
        return true;
    }
    return false;
  }

  Result<int> CompareValues(const Item& a0, const Item& b0) {
    PF_ASSIGN_OR_RETURN(Item a, Atomize(a0));
    PF_ASSIGN_OR_RETURN(Item b, Atomize(b0));
    return bat::ItemCompareValue(a, b, *ctx_->pool());
  }

  Result<Seq> EvalBinOp(const ExprPtr& e) {
    switch (e->op) {
      case BinOp::kAnd: {
        PF_ASSIGN_OR_RETURN(bool a, Ebv(e->children[0]));
        PF_ASSIGN_OR_RETURN(bool b, Ebv(e->children[1]));
        return Seq{Item::Bool(a && b)};
      }
      case BinOp::kOr: {
        PF_ASSIGN_OR_RETURN(bool a, Ebv(e->children[0]));
        PF_ASSIGN_OR_RETURN(bool b, Ebv(e->children[1]));
        return Seq{Item::Bool(a || b)};
      }
      default:
        break;
    }
    PF_ASSIGN_OR_RETURN(Seq a, Eval(e->children[0]));
    PF_ASSIGN_OR_RETURN(Seq b, Eval(e->children[1]));
    switch (e->op) {
      case BinOp::kGenEq:
      case BinOp::kGenNe:
      case BinOp::kGenLt:
      case BinOp::kGenLe:
      case BinOp::kGenGt:
      case BinOp::kGenGe: {
        // Existential over all pairs — the nested-loop "join".
        for (const Item& x : a) {
          for (const Item& y : b) {
            PF_ASSIGN_OR_RETURN(int c, CompareValues(x, y));
            bool r = false;
            switch (e->op) {
              case BinOp::kGenEq:
                r = c == 0;
                break;
              case BinOp::kGenNe:
                r = c != 0;
                break;
              case BinOp::kGenLt:
                r = c < 0;
                break;
              case BinOp::kGenLe:
                r = c <= 0;
                break;
              case BinOp::kGenGt:
                r = c > 0;
                break;
              default:
                r = c >= 0;
                break;
            }
            if (r) return Seq{Item::Bool(true)};
          }
        }
        return Seq{Item::Bool(false)};
      }
      case BinOp::kValEq:
      case BinOp::kValNe:
      case BinOp::kValLt:
      case BinOp::kValLe:
      case BinOp::kValGt:
      case BinOp::kValGe: {
        Seq out;
        for (const Item& x : a) {
          for (const Item& y : b) {
            PF_ASSIGN_OR_RETURN(int c, CompareValues(x, y));
            bool r = false;
            switch (e->op) {
              case BinOp::kValEq:
                r = c == 0;
                break;
              case BinOp::kValNe:
                r = c != 0;
                break;
              case BinOp::kValLt:
                r = c < 0;
                break;
              case BinOp::kValLe:
                r = c <= 0;
                break;
              case BinOp::kValGt:
                r = c > 0;
                break;
              default:
                r = c >= 0;
                break;
            }
            out.push_back(Item::Bool(r));
          }
        }
        return out;
      }
      case BinOp::kIs:
      case BinOp::kBefore:
      case BinOp::kAfter: {
        Seq out;
        for (const Item& x : a) {
          for (const Item& y : b) {
            if (!x.IsNode() || !y.IsNode()) {
              return Status::TypeError(
                  "baseline: node comparison on non-nodes");
            }
            bool r = e->op == BinOp::kIs
                         ? x == y
                         : (e->op == BinOp::kBefore ? x.raw < y.raw
                                                    : x.raw > y.raw);
            out.push_back(Item::Bool(r));
          }
        }
        return out;
      }
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kIdiv:
      case BinOp::kMod: {
        Seq out;
        for (const Item& x0 : a) {
          for (const Item& y0 : b) {
            PF_ASSIGN_OR_RETURN(Item x, Atomize(x0));
            PF_ASSIGN_OR_RETURN(Item y, Atomize(y0));
            PF_ASSIGN_OR_RETURN(Item r, Arith(e->op, x, y));
            out.push_back(r);
          }
        }
        return out;
      }
      default:
        return Status::Internal("baseline: unexpected binop");
    }
  }

  Result<Item> Arith(BinOp op, const Item& a, const Item& b) {
    bool both_int = a.kind == ItemKind::kInt && b.kind == ItemKind::kInt;
    PF_ASSIGN_OR_RETURN(double da, bat::ItemToDouble(a, *ctx_->pool()));
    PF_ASSIGN_OR_RETURN(double db, bat::ItemToDouble(b, *ctx_->pool()));
    switch (op) {
      case BinOp::kAdd:
        return both_int ? Item::Int(a.AsInt() + b.AsInt())
                        : Item::Dbl(da + db);
      case BinOp::kSub:
        return both_int ? Item::Int(a.AsInt() - b.AsInt())
                        : Item::Dbl(da - db);
      case BinOp::kMul:
        return both_int ? Item::Int(a.AsInt() * b.AsInt())
                        : Item::Dbl(da * db);
      case BinOp::kDiv:
        if (db == 0.0) return Status::TypeError("division by zero");
        return Item::Dbl(da / db);
      case BinOp::kIdiv:
        if (db == 0.0) return Status::TypeError("integer division by zero");
        return Item::Int(static_cast<int64_t>(da / db));
      case BinOp::kMod:
        if (db == 0.0) return Status::TypeError("modulo by zero");
        if (both_int) return Item::Int(a.AsInt() % b.AsInt());
        return Item::Dbl(std::fmod(da, db));
      default:
        return Status::Internal("not arithmetic");
    }
  }

  Result<Seq> EvalElem(const ExprPtr& e) {
    PF_ASSIGN_OR_RETURN(Seq names, Eval(e->children[0]));
    if (names.empty()) return Seq{};
    PF_ASSIGN_OR_RETURN(std::string name, ItemString(names[0]));
    Seq content;
    for (size_t i = 1; i < e->children.size(); ++i) {
      PF_ASSIGN_OR_RETURN(Seq s, Eval(e->children[i]));
      content.insert(content.end(), s.begin(), s.end());
    }
    PF_ASSIGN_OR_RETURN(Item node,
                        BuildElement(ctx_, name, content));
    return Seq{node};
  }

  Result<Seq> EvalCall(const ExprPtr& e) {
    const std::string& f = e->sval;
    if (f == "true") return Seq{Item::Bool(true)};
    if (f == "false") return Seq{Item::Bool(false)};

    std::vector<Seq> args;
    for (const auto& a : e->children) {
      PF_ASSIGN_OR_RETURN(Seq s, Eval(a));
      args.push_back(std::move(s));
    }

    if (f == "doc") {
      if (args[0].empty()) return Seq{};
      PF_ASSIGN_OR_RETURN(std::string name, ItemString(args[0][0]));
      PF_ASSIGN_OR_RETURN(xml::FragId frag,
                          ctx_->db()->FindDocument(name));
      return Seq{Item::Node(frag, 0)};
    }
    if (f == "root") {
      Seq out;
      for (const Item& it : args[0]) {
        if (!it.IsNode()) {
          return Status::TypeError("fn:root on a non-node");
        }
        out.push_back(Item::Node(it.NodeFrag(), 0));
      }
      return out;
    }
    if (f == "data") {
      Seq out;
      for (const Item& it : args[0]) {
        PF_ASSIGN_OR_RETURN(Item a, Atomize(it));
        out.push_back(a);
      }
      return out;
    }
    if (f == "string") {
      if (args[0].empty()) {
        return Seq{Item::Str(ctx_->pool()->Intern(""))};
      }
      Seq out;
      for (const Item& it : args[0]) {
        PF_ASSIGN_OR_RETURN(std::string s, ItemString(it));
        out.push_back(Item::Str(ctx_->pool()->Intern(s)));
      }
      return out;
    }
    if (f == "number") {
      if (args[0].empty()) {
        return Seq{Item::Dbl(std::numeric_limits<double>::quiet_NaN())};
      }
      Seq out;
      for (const Item& it : args[0]) {
        PF_ASSIGN_OR_RETURN(Item a, Atomize(it));
        auto d = bat::ItemToDouble(a, *ctx_->pool());
        out.push_back(Item::Dbl(
            d.ok() ? *d : std::numeric_limits<double>::quiet_NaN()));
      }
      return out;
    }
    if (f == "count") {
      return Seq{Item::Int(static_cast<int64_t>(args[0].size()))};
    }
    if (f == "sum" || f == "avg" || f == "max" || f == "min") {
      if (args[0].empty()) {
        if (f == "sum") return Seq{Item::Int(0)};
        return Seq{};
      }
      double acc = 0;
      int64_t iacc = 0;
      bool all_int = true;
      Item extreme{};
      bool first = true;
      for (const Item& it0 : args[0]) {
        PF_ASSIGN_OR_RETURN(Item it, Atomize(it0));
        if (f == "max" || f == "min") {
          if (first) {
            extreme = it;
            first = false;
          } else {
            PF_ASSIGN_OR_RETURN(
                int c, bat::ItemCompareValue(it, extreme, *ctx_->pool()));
            if ((f == "max" && c > 0) || (f == "min" && c < 0)) {
              extreme = it;
            }
          }
          continue;
        }
        PF_ASSIGN_OR_RETURN(double d, bat::ItemToDouble(it, *ctx_->pool()));
        acc += d;
        if (it.kind == ItemKind::kInt) {
          iacc += it.AsInt();
        } else {
          all_int = false;
        }
      }
      if (f == "sum") {
        return Seq{all_int ? Item::Int(iacc) : Item::Dbl(acc)};
      }
      if (f == "avg") {
        return Seq{Item::Dbl(acc / static_cast<double>(args[0].size()))};
      }
      return Seq{extreme};
    }
    if (f == "empty") return Seq{Item::Bool(args[0].empty())};
    if (f == "exists") return Seq{Item::Bool(!args[0].empty())};
    if (f == "not" || f == "boolean") {
      bool b = false;
      for (const Item& it : args[0]) {
        PF_ASSIGN_OR_RETURN(bool x, bat::ItemToBool(it, *ctx_->pool()));
        if (x) {
          b = true;
          break;
        }
      }
      return Seq{Item::Bool(f == "not" ? !b : b)};
    }
    if (f == "contains" || f == "starts-with") {
      std::string x, y;
      if (!args[0].empty()) {
        PF_ASSIGN_OR_RETURN(x, ItemString(args[0][0]));
      }
      if (!args[1].empty()) {
        PF_ASSIGN_OR_RETURN(y, ItemString(args[1][0]));
      }
      bool r = f == "contains" ? x.find(y) != std::string::npos
                               : x.substr(0, y.size()) == y;
      return Seq{Item::Bool(r)};
    }
    if (f == "concat") {
      std::string out;
      for (const auto& a : args) {
        if (!a.empty()) {
          PF_ASSIGN_OR_RETURN(std::string s, ItemString(a[0]));
          out += s;
        }
      }
      return Seq{Item::Str(ctx_->pool()->Intern(out))};
    }
    if (f == "string-length") {
      // Mapped over every item, like fn:string (see fn:name above).
      if (args[0].empty()) return Seq{Item::Int(0)};
      Seq out;
      for (const Item& it : args[0]) {
        PF_ASSIGN_OR_RETURN(std::string s, ItemString(it));
        out.push_back(Item::Int(static_cast<int64_t>(s.size())));
      }
      return out;
    }
    if (f == "substring") {
      // Mapped over every item of the first argument (bulk map
      // semantics, see fn:name above); start/length use the first item.
      double start = 1;
      if (!args[1].empty()) {
        PF_ASSIGN_OR_RETURN(Item a, Atomize(args[1][0]));
        PF_ASSIGN_OR_RETURN(start, bat::ItemToDouble(a, *ctx_->pool()));
      }
      double lend = 0;
      if (args.size() == 3 && !args[2].empty()) {
        PF_ASSIGN_OR_RETURN(Item a, Atomize(args[2][0]));
        PF_ASSIGN_OR_RETURN(lend, bat::ItemToDouble(a, *ctx_->pool()));
      }
      Seq inputs = args[0];
      if (inputs.empty()) {
        inputs.push_back(Item::Str(ctx_->pool()->Intern("")));
      }
      Seq out;
      for (const Item& it : inputs) {
        PF_ASSIGN_OR_RETURN(std::string str, ItemString(it));
        int64_t b = static_cast<int64_t>(std::llround(start));
        if (b < 1) b = 1;
        std::string r;
        if (static_cast<size_t>(b) <= str.size()) {
          r = str.substr(static_cast<size_t>(b - 1));
        }
        if (args.size() == 3) {
          int64_t len = static_cast<int64_t>(std::llround(lend));
          r = len > 0 ? r.substr(0, static_cast<size_t>(len)) : "";
        }
        out.push_back(Item::Str(ctx_->pool()->Intern(r)));
      }
      return out;
    }
    if (f == "string-join") {
      std::string sep;
      if (!args[1].empty()) {
        PF_ASSIGN_OR_RETURN(sep, ItemString(args[1][0]));
      }
      std::string joined;
      for (size_t i = 0; i < args[0].size(); ++i) {
        PF_ASSIGN_OR_RETURN(std::string s, ItemString(args[0][i]));
        if (i) joined += sep;
        joined += s;
      }
      return Seq{Item::Str(ctx_->pool()->Intern(joined))};
    }
    if (f == "distinct-values") {
      Seq out;
      for (const Item& it0 : args[0]) {
        PF_ASSIGN_OR_RETURN(Item it, Atomize(it0));
        bool seen = false;
        for (const Item& o : out) {
          if (o == it) {
            seen = true;
            break;
          }
        }
        if (!seen) out.push_back(it);
      }
      return out;
    }
    if (f == "zero-or-one" || f == "exactly-one") return args[0];
    if (f == "name" || f == "local-name") {
      // Like fn:string, mapped over every item (matching the relational
      // engine's bulk map semantics; strict W3C cardinality checks are
      // out of scope — see DESIGN.md).
      if (args[0].empty()) {
        return Seq{Item::Str(ctx_->pool()->Intern(""))};
      }
      Seq out;
      for (const Item& it : args[0]) {
        if (!it.IsNode()) {
          return Status::TypeError("fn:name on a non-node");
        }
        const xml::Document& d = ctx_->doc(it.NodeFrag());
        xml::Pre v = it.NodePre();
        xml::NodeKind k = d.kind(v);
        StrId s = (k == xml::NodeKind::kElem ||
                   k == xml::NodeKind::kAttr || k == xml::NodeKind::kPi)
                      ? d.prop(v)
                      : ctx_->pool()->Intern("");
        out.push_back(Item::Str(s));
      }
      return out;
    }
    return Status::Internal("baseline: unsupported function " + f);
  }

  class ScopedBind {
   public:
    ScopedBind(Interp* in, const std::string& var, Seq value)
        : in_(in), var_(var) {
      auto it = in->env_.find(var);
      had_ = it != in->env_.end();
      if (had_) old_ = std::move(it->second);
      in->env_[var] = std::move(value);
    }
    ~ScopedBind() {
      if (had_) {
        in_->env_[var_] = std::move(old_);
      } else {
        in_->env_.erase(var_);
      }
    }

   private:
    Interp* in_;
    std::string var_;
    bool had_ = false;
    Seq old_;
  };

  engine::QueryContext* ctx_;
  std::map<std::string, Seq> env_;
  std::unordered_map<uint32_t, std::unique_ptr<Dom>> doms_;
};

}  // namespace

Result<std::string> BaselineResult::Serialize() const {
  return runtime::SerializeSequence(*ctx, items);
}

Result<BaselineResult> Baseline::Run(const std::string& query,
                                     const BaselineOptions& opts) const {
  PF_ASSIGN_OR_RETURN(frontend::Module mod, frontend::ParseQuery(query));
  frontend::NormalizeOptions nopts;
  nopts.context_doc = opts.context_doc;
  PF_ASSIGN_OR_RETURN(frontend::ExprPtr core,
                      frontend::Normalize(mod, nopts));
  return RunCore(core);
}

Result<BaselineResult> Baseline::RunCore(
    const frontend::ExprPtr& core) const {
  BaselineResult res;
  res.ctx = std::make_unique<engine::QueryContext>(db_);
  Interp interp(res.ctx.get());
  PF_ASSIGN_OR_RETURN(res.items, interp.Eval(core));
  return res;
}

}  // namespace pathfinder::baseline
