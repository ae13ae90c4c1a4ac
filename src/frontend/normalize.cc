#include "frontend/normalize.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace pathfinder::frontend {

namespace {

/// Built-in function table: name -> {min arity, max arity}.
const std::unordered_map<std::string, std::pair<int, int>>& Builtins() {
  static const auto* kMap =
      new std::unordered_map<std::string, std::pair<int, int>>{
          {"doc", {1, 1}},
          {"root", {0, 1}},
          {"data", {1, 1}},
          {"string", {0, 1}},
          {"number", {0, 1}},
          {"count", {1, 1}},
          {"sum", {1, 1}},
          {"avg", {1, 1}},
          {"max", {1, 1}},
          {"min", {1, 1}},
          {"empty", {1, 1}},
          {"exists", {1, 1}},
          {"not", {1, 1}},
          {"boolean", {1, 1}},
          {"contains", {2, 2}},
          {"starts-with", {2, 2}},
          {"concat", {2, 16}},
          {"string-length", {0, 1}},
          {"substring", {2, 3}},
          {"string-join", {2, 2}},
          {"distinct-values", {1, 1}},
          {"zero-or-one", {1, 1}},
          {"exactly-one", {1, 1}},
          {"position", {0, 0}},
          {"last", {0, 0}},
          {"true", {0, 0}},
          {"false", {0, 0}},
          {"name", {0, 1}},
          {"local-name", {0, 1}},
          {"fs:distinct-doc-order", {1, 1}},
      };
  return *kMap;
}

/// Most Core nodes that inlining user-defined functions may produce for
/// one query (counted as normalizer steps inside inlined bodies). A
/// body is normalized once per call site, so a chain of functions that
/// each call the previous one twice doubles the Core tree, and the
/// plan, per function: fourteen levels (879 bytes of query) exhaust a
/// 3 GB address space in the executor. Twelve levels fit and compile
/// to about 49,000 operators. XMark Q18, the only XMark query with a
/// function, inlines 3 nodes.
constexpr int64_t kMaxInlinedNodes = 1 << 15;

/// Context item / position / last bindings for predicate bodies.
struct FocusCtx {
  std::string dot_var;   // renamed variable holding the context item
  std::string pos_var;   // renamed positional variable ("" if absent)
  ExprPtr last_expr;     // expression for last() (nullptr if absent)
};

class Normalizer {
 public:
  Normalizer(const Module& mod, const NormalizeOptions& opts)
      : opts_(opts) {
    for (const auto& f : mod.functions) {
      functions_[f.name] = &f;
    }
  }

  Result<ExprPtr> Run(const ExprPtr& body) { return Norm(body); }

 private:
  std::string Gensym(const std::string& hint) {
    return "fs:" + hint + std::to_string(counter_++);
  }

  ExprPtr Var(const std::string& name) {
    ExprPtr v = MakeExpr(ExprKind::kVar);
    v->sval = name;
    return v;
  }

  ExprPtr Call(const std::string& fn, std::vector<ExprPtr> args) {
    ExprPtr c = MakeExpr(ExprKind::kFunCall, std::move(args));
    c->sval = fn;
    return c;
  }

  ExprPtr IntLit(int64_t v) {
    ExprPtr e = MakeExpr(ExprKind::kIntLit);
    e->ival = v;
    return e;
  }

  Status Err(const ExprPtr& e, const std::string& msg) {
    return Status::ParseError("line " + std::to_string(e->line) + ": " +
                              msg);
  }

  // Scoped variable renaming.
  class Binding {
   public:
    Binding(Normalizer* n, const std::string& surface,
            const std::string& renamed)
        : n_(n), surface_(surface) {
      if (surface.empty()) return;
      auto it = n->renames_.find(surface);
      had_old_ = it != n->renames_.end();
      if (had_old_) old_ = it->second;
      n->renames_[surface] = renamed;
    }
    ~Binding() {
      if (surface_.empty()) return;
      if (had_old_) {
        n_->renames_[surface_] = old_;
      } else {
        n_->renames_.erase(surface_);
      }
    }

   private:
    Normalizer* n_;
    std::string surface_;
    bool had_old_ = false;
    std::string old_;
  };

  Result<ExprPtr> Norm(const ExprPtr& e) {
    if (!e) return Status::Internal("null expression in normalizer");
    if (!inlining_.empty() && ++inlined_nodes_ > kMaxInlinedNodes) {
      return Status::NotSupported(
          "function inlining expands the query past " +
          std::to_string(kMaxInlinedNodes) + " Core nodes");
    }
    switch (e->kind) {
      case ExprKind::kIntLit:
      case ExprKind::kDblLit:
      case ExprKind::kStrLit:
      case ExprKind::kEmpty: {
        auto out = MakeExpr(e->kind);
        out->ival = e->ival;
        out->dval = e->dval;
        out->sval = e->sval;
        out->line = e->line;
        return ApplyPredicates(out, e);
      }
      case ExprKind::kSequence: {
        auto out = MakeExpr(ExprKind::kSequence);
        out->line = e->line;
        for (const auto& c : e->children) {
          PF_ASSIGN_OR_RETURN(ExprPtr nc, Norm(c));
          out->children.push_back(nc);
        }
        return ApplyPredicates(out, e);
      }
      case ExprKind::kVar: {
        auto it = renames_.find(e->sval);
        if (it == renames_.end()) {
          return Err(e, "undefined variable $" + e->sval);
        }
        return ApplyPredicates(Var(it->second), e);
      }
      case ExprKind::kContextItem: {
        if (focus_.empty() || focus_.back().dot_var.empty()) {
          return Err(e, "'.' used without a context item");
        }
        return ApplyPredicates(Var(focus_.back().dot_var), e);
      }
      case ExprKind::kRootCtx: {
        if (!opts_.context_doc.empty()) {
          ExprPtr lit = MakeExpr(ExprKind::kStrLit);
          lit->sval = opts_.context_doc;
          return Call("doc", {lit});
        }
        if (!focus_.empty() && !focus_.back().dot_var.empty()) {
          return Call("root", {Var(focus_.back().dot_var)});
        }
        return Err(e, "absolute path without a context document");
      }
      case ExprKind::kAxisStep:
        return NormStep(e);
      case ExprKind::kFlwor:
        return NormFlwor(e);
      case ExprKind::kIf: {
        PF_ASSIGN_OR_RETURN(ExprPtr c, Norm(e->children[0]));
        PF_ASSIGN_OR_RETURN(ExprPtr t, Norm(e->children[1]));
        PF_ASSIGN_OR_RETURN(ExprPtr f, Norm(e->children[2]));
        return ApplyPredicates(MakeExpr(ExprKind::kIf, {c, t, f}), e);
      }
      case ExprKind::kTypeswitch: {
        PF_ASSIGN_OR_RETURN(ExprPtr operand, Norm(e->children[0]));
        auto out = MakeExpr(ExprKind::kTypeswitch, {operand});
        for (const auto& c : e->cases) {
          TypeCase nc;
          nc.type = c.type;
          nc.elem_name = c.elem_name;
          if (!c.var.empty()) {
            nc.var = Gensym("ts");
            Binding bind(this, c.var, nc.var);
            PF_ASSIGN_OR_RETURN(nc.body, Norm(c.body));
          } else {
            PF_ASSIGN_OR_RETURN(nc.body, Norm(c.body));
          }
          out->cases.push_back(std::move(nc));
        }
        return ApplyPredicates(out, e);
      }
      case ExprKind::kBinOp: {
        PF_ASSIGN_OR_RETURN(ExprPtr a, Norm(e->children[0]));
        PF_ASSIGN_OR_RETURN(ExprPtr b, Norm(e->children[1]));
        if (e->op == BinOp::kUnion) {
          // e1 | e2  ==  fs:ddo((e1, e2))
          auto seq = MakeExpr(ExprKind::kSequence, {a, b});
          return ApplyPredicates(MakeExpr(ExprKind::kDdo, {seq}), e);
        }
        auto out = MakeExpr(ExprKind::kBinOp, {a, b});
        out->op = e->op;
        return ApplyPredicates(out, e);
      }
      case ExprKind::kUnaryMinus: {
        PF_ASSIGN_OR_RETURN(ExprPtr a, Norm(e->children[0]));
        return ApplyPredicates(MakeExpr(ExprKind::kUnaryMinus, {a}), e);
      }
      case ExprKind::kFunCall:
        return NormCall(e);
      case ExprKind::kElemConstr: {
        auto out = MakeExpr(ExprKind::kElemConstr);
        out->line = e->line;
        for (const auto& c : e->children) {
          PF_ASSIGN_OR_RETURN(ExprPtr nc, Norm(c));
          out->children.push_back(nc);
        }
        return ApplyPredicates(out, e);
      }
      case ExprKind::kAttrConstr: {
        auto out = MakeExpr(ExprKind::kAttrConstr);
        out->sval = e->sval;
        for (const auto& c : e->children) {
          PF_ASSIGN_OR_RETURN(ExprPtr nc, Norm(c));
          out->children.push_back(nc);
        }
        return out;
      }
      case ExprKind::kTextConstr: {
        PF_ASSIGN_OR_RETURN(ExprPtr c, Norm(e->children[0]));
        return ApplyPredicates(MakeExpr(ExprKind::kTextConstr, {c}), e);
      }
      case ExprKind::kDdo: {
        PF_ASSIGN_OR_RETURN(ExprPtr c, Norm(e->children[0]));
        return ApplyPredicates(MakeExpr(ExprKind::kDdo, {c}), e);
      }
      case ExprKind::kSome:
      case ExprKind::kEvery: {
        // some $v in d satisfies p  ==  exists(for $v in d where p return 1)
        // every $v in d satisfies p ==  empty(for $v in d where not(p) return 1)
        bool some = e->kind == ExprKind::kSome;
        PF_ASSIGN_OR_RETURN(ExprPtr domain, Norm(e->children[0]));
        std::string v = Gensym("q");
        ExprPtr flwor = MakeExpr(ExprKind::kFlwor, {IntLit(1)});
        ForLetClause c;
        c.is_let = false;
        c.var = v;
        c.expr = domain;
        flwor->clauses.push_back(c);
        {
          Binding bind(this, e->sval, v);
          PF_ASSIGN_OR_RETURN(ExprPtr pred, Norm(e->children[1]));
          flwor->where = some ? pred : Call("not", {pred});
        }
        return Call(some ? "exists" : "empty", {flwor});
      }
    }
    return Status::Internal("unhandled expression kind in normalizer");
  }

  /// Classify a (surface) predicate: does it statically denote a number
  /// (positional predicate) rather than a boolean?
  bool IsPositionalPred(const ExprPtr& p) const {
    switch (p->kind) {
      case ExprKind::kIntLit:
      case ExprKind::kDblLit:
        return true;
      case ExprKind::kUnaryMinus:
        return IsPositionalPred(p->children[0]);
      case ExprKind::kBinOp:
        switch (p->op) {
          case BinOp::kAdd:
          case BinOp::kSub:
          case BinOp::kMul:
          case BinOp::kDiv:
          case BinOp::kIdiv:
          case BinOp::kMod:
            return true;
          default:
            return false;
        }
      case ExprKind::kFunCall:
        return p->sval == "last" || p->sval == "fn:last";
      default:
        return false;
    }
  }

  /// Wrap `seq` (already normalized) with the (surface) predicates of
  /// `orig`, lowering each to a filtering FLWOR with its own focus.
  Result<ExprPtr> ApplyPredicates(ExprPtr seq, const ExprPtr& orig) {
    for (const auto& pred : orig->preds) {
      PF_ASSIGN_OR_RETURN(seq, ApplyOnePredicate(seq, pred));
    }
    return seq;
  }

  Result<ExprPtr> ApplyOnePredicate(ExprPtr seq, const ExprPtr& pred) {
    // let $s := seq
    // for $it at $p in $s where <cond> return $it
    std::string sv = Gensym("seq");
    std::string iv = Gensym("dot");
    std::string pv = Gensym("pos");

    ExprPtr flwor = MakeExpr(ExprKind::kFlwor, {Var(iv)});
    {
      ForLetClause let;
      let.is_let = true;
      let.var = sv;
      let.expr = seq;
      flwor->clauses.push_back(let);
      ForLetClause f;
      f.is_let = false;
      f.var = iv;
      f.pos_var = pv;
      f.expr = Var(sv);
      flwor->clauses.push_back(f);
    }
    focus_.push_back({iv, pv, Call("count", {Var(sv)})});
    auto pop = [this]() { focus_.pop_back(); };
    Result<ExprPtr> cond_r = Norm(pred);
    pop();
    PF_RETURN_NOT_OK(cond_r.status());
    ExprPtr cond = std::move(cond_r).value();

    if (IsPositionalPred(pred)) {
      // where $p eq <numeric>
      ExprPtr cmp = MakeExpr(ExprKind::kBinOp, {Var(pv), cond});
      cmp->op = BinOp::kValEq;
      flwor->where = cmp;
    } else {
      flwor->where = cond;  // EBV applied by the compiler
    }
    return flwor;
  }

  Result<ExprPtr> NormStep(const ExprPtr& e) {
    // Classic XPath rewrite: descendant-or-self::node()/child::T is
    // descendant::T — one staircase join instead of materializing every
    // node under the context (the dominant cost of "//" paths). Only
    // safe without predicates (predicate positions count per context).
    if (e->axis == accel::Axis::kChild && e->preds.empty()) {
      const ExprPtr& inner = e->children[0];
      if (inner->kind == ExprKind::kAxisStep &&
          inner->axis == accel::Axis::kDescendantOrSelf &&
          inner->test.kind == StepTest::Kind::kAnyKind &&
          inner->preds.empty()) {
        ExprPtr merged = MakeExpr(ExprKind::kAxisStep, {inner->children[0]});
        merged->axis = accel::Axis::kDescendant;
        merged->test = e->test;
        merged->line = e->line;
        return NormStep(merged);
      }
    }
    PF_ASSIGN_OR_RETURN(ExprPtr ctx, Norm(e->children[0]));
    // fs:ddo(for $dot in ctx return <per-context step with predicates>)
    std::string dot = Gensym("dot");

    ExprPtr step = MakeExpr(ExprKind::kAxisStep, {Var(dot)});
    step->axis = e->axis;
    step->test = e->test;

    ExprPtr per_ctx = step;
    // Predicates are evaluated per context node ($dot), with the step
    // result as their focus (ApplyOnePredicate installs it).
    for (const auto& pred : e->preds) {
      PF_ASSIGN_OR_RETURN(per_ctx, ApplyOnePredicate(per_ctx, pred));
    }

    ExprPtr flwor = MakeExpr(ExprKind::kFlwor, {per_ctx});
    ForLetClause f;
    f.is_let = false;
    f.var = dot;
    f.expr = ctx;
    flwor->clauses.push_back(f);
    return MakeExpr(ExprKind::kDdo, {flwor});
  }

  Result<ExprPtr> NormFlwor(const ExprPtr& e) {
    ExprPtr out = MakeExpr(ExprKind::kFlwor);
    out->line = e->line;
    std::vector<std::unique_ptr<Binding>> bindings;
    for (const auto& c : e->clauses) {
      ForLetClause nc;
      nc.is_let = c.is_let;
      PF_ASSIGN_OR_RETURN(nc.expr, Norm(c.expr));
      nc.var = Gensym(c.is_let ? "let" : "for");
      bindings.push_back(std::make_unique<Binding>(this, c.var, nc.var));
      if (!c.pos_var.empty()) {
        nc.pos_var = Gensym("at");
        bindings.push_back(
            std::make_unique<Binding>(this, c.pos_var, nc.pos_var));
      }
      out->clauses.push_back(std::move(nc));
    }
    if (e->where) {
      PF_ASSIGN_OR_RETURN(out->where, Norm(e->where));
    }
    for (const auto& k : e->order_keys) {
      OrderKey nk;
      nk.ascending = k.ascending;
      PF_ASSIGN_OR_RETURN(nk.key, Norm(k.key));
      out->order_keys.push_back(std::move(nk));
    }
    PF_ASSIGN_OR_RETURN(ExprPtr ret, Norm(e->children[0]));
    out->children.push_back(ret);
    return ApplyPredicates(out, e);
  }

  Result<ExprPtr> NormCall(const ExprPtr& e) {
    const std::string& name = e->sval;

    // position()/last() resolve against the innermost focus.
    if (name == "position") {
      if (focus_.empty() || focus_.back().pos_var.empty()) {
        return Err(e, "position() used outside a predicate");
      }
      return Var(focus_.back().pos_var);
    }
    if (name == "last") {
      if (focus_.empty() || !focus_.back().last_expr) {
        return Err(e, "last() used outside a predicate");
      }
      return focus_.back().last_expr;
    }
    if (name == "fs:distinct-doc-order") {
      PF_ASSIGN_OR_RETURN(ExprPtr a, Norm(e->children[0]));
      return MakeExpr(ExprKind::kDdo, {a});
    }

    // User-defined function: inline.
    auto fit = functions_.find(name);
    if (fit != functions_.end()) {
      const Function& f = *fit->second;
      if (f.params.size() != e->children.size()) {
        return Err(e, "function " + name + " expects " +
                          std::to_string(f.params.size()) + " arguments");
      }
      if (inlining_.count(name)) {
        return Status::NotSupported(
            "recursive function '" + name +
            "' is not supported by the relational compiler");
      }
      // Arguments are normalized in the caller's scope (and may
      // themselves call this function non-recursively), so they are
      // processed before the recursion guard is armed.
      ExprPtr flwor = MakeExpr(ExprKind::kFlwor);
      std::vector<ExprPtr> args;
      for (const auto& a : e->children) {
        PF_ASSIGN_OR_RETURN(ExprPtr na, Norm(a));
        args.push_back(na);
      }
      inlining_.insert(name);
      // The function body sees ONLY its parameters: swap the rename map.
      std::unordered_map<std::string, std::string> saved;
      saved.swap(renames_);
      std::vector<FocusCtx> saved_focus;
      saved_focus.swap(focus_);
      for (size_t i = 0; i < f.params.size(); ++i) {
        ForLetClause let;
        let.is_let = true;
        let.var = Gensym("arg");
        let.expr = args[i];
        renames_[f.params[i]] = let.var;
        flwor->clauses.push_back(std::move(let));
      }
      Result<ExprPtr> body = Norm(f.body);
      renames_.swap(saved);
      focus_.swap(saved_focus);
      inlining_.erase(name);
      PF_RETURN_NOT_OK(body.status());
      flwor->children.push_back(std::move(body).value());
      return flwor;
    }

    // Built-in.
    auto bit = Builtins().find(name);
    if (bit == Builtins().end()) {
      return Err(e, "unknown function " + name + "()");
    }
    int arity = static_cast<int>(e->children.size());
    if (arity < bit->second.first || arity > bit->second.second) {
      return Err(e, "wrong number of arguments to " + name + "()");
    }
    ExprPtr out = MakeExpr(ExprKind::kFunCall);
    out->sval = name;
    out->line = e->line;
    for (const auto& a : e->children) {
      PF_ASSIGN_OR_RETURN(ExprPtr na, Norm(a));
      out->children.push_back(na);
    }
    // 0-argument string()/name()/... default to the context item.
    if (out->children.empty() &&
        (name == "string" || name == "number" || name == "name" ||
         name == "local-name" || name == "string-length" ||
         name == "root")) {
      if (focus_.empty() || focus_.back().dot_var.empty()) {
        return Err(e, name + "() with no argument needs a context item");
      }
      out->children.push_back(Var(focus_.back().dot_var));
    }
    return ApplyPredicates(out, e);
  }

  const NormalizeOptions& opts_;
  std::unordered_map<std::string, const Function*> functions_;
  std::unordered_map<std::string, std::string> renames_;
  std::unordered_set<std::string> inlining_;
  std::vector<FocusCtx> focus_;
  int counter_ = 0;
  int64_t inlined_nodes_ = 0;  // Norm calls inside inlined bodies
};

}  // namespace

bool IsBuiltinFunction(const std::string& name, size_t arity) {
  auto it = Builtins().find(name);
  if (it == Builtins().end()) return false;
  int a = static_cast<int>(arity);
  return a >= it->second.first && a <= it->second.second;
}

Result<ExprPtr> Normalize(const Module& mod, const NormalizeOptions& opts) {
  Normalizer n(mod, opts);
  return n.Run(mod.body);
}

}  // namespace pathfinder::frontend
