#include "compiler/compile.h"

#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "algebra/schema.h"

namespace pathfinder::compiler {

namespace {

namespace alg = pathfinder::algebra;
using alg::Fun1;
using bat::ColId;
using bat::kInner;
using bat::kItem;
using bat::kIter;
using bat::kOuter;
using bat::kPos;
using alg::Fun2;
using alg::OpPtr;
using frontend::BinOp;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;

// ---------------------------------------------------------------------
// Free-variable analysis (used by the join recognition logic).

void FreeVarsRec(const ExprPtr& e, std::set<std::string>* bound,
                 std::set<std::string>* out) {
  if (!e) return;
  switch (e->kind) {
    case ExprKind::kVar:
      if (!bound->count(e->sval)) out->insert(e->sval);
      return;
    case ExprKind::kFlwor: {
      std::vector<std::string> newly;
      for (const auto& c : e->clauses) {
        FreeVarsRec(c.expr, bound, out);
        if (bound->insert(c.var).second) newly.push_back(c.var);
        if (!c.pos_var.empty() && bound->insert(c.pos_var).second) {
          newly.push_back(c.pos_var);
        }
      }
      FreeVarsRec(e->where, bound, out);
      for (const auto& k : e->order_keys) FreeVarsRec(k.key, bound, out);
      FreeVarsRec(e->children[0], bound, out);
      for (const auto& v : newly) bound->erase(v);
      return;
    }
    case ExprKind::kTypeswitch: {
      FreeVarsRec(e->children[0], bound, out);
      for (const auto& c : e->cases) {
        bool newly = !c.var.empty() && bound->insert(c.var).second;
        FreeVarsRec(c.body, bound, out);
        if (newly) bound->erase(c.var);
      }
      return;
    }
    default:
      for (const auto& c : e->children) FreeVarsRec(c, bound, out);
      for (const auto& p : e->preds) FreeVarsRec(p, bound, out);
      if (e->where) FreeVarsRec(e->where, bound, out);
      return;
  }
}

std::set<std::string> FreeVars(const ExprPtr& e) {
  std::set<std::string> bound, out;
  FreeVarsRec(e, &bound, &out);
  return out;
}

// ---------------------------------------------------------------------

class Impl {
 public:
  Impl(xml::Database* db, const CompileOptions& opts, CompileStats* stats)
      : db_(db), opts_(opts), stats_(stats) {}

  Result<OpPtr> Run(const ExprPtr& core) {
    // The top-level scope s0 has a single iteration (paper Fig. 3(a)).
    OpPtr loop0 = alg::LitTable({kIter}, {bat::ColType::kInt},
                                {{Item::Int(1)}});
    scope_loops_ = {loop0};
    maps_.clear();
    Env env;
    PF_ASSIGN_OR_RETURN(OpPtr body, Comp(core, loop0, env, 0));
    OpPtr root = alg::Serialize(body);
    PF_RETURN_NOT_OK(alg::ValidatePlan(root));
    return root;
  }

 private:
  struct VarEntry {
    OpPtr plan;  // (iter, pos, item) at the binding scope
    int depth;
  };
  using Env = std::map<std::string, VarEntry>;

  /// A fresh column, interned once, here, when it is minted.
  ColId Col(const char* base) {
    return bat::InternCol(std::string(base) + std::to_string(colc_++));
  }

  Item StrItem(const std::string& s) {
    return Item::Str(db_->pool()->Intern(s));
  }

  static Status Err(const ExprPtr& e, const std::string& msg) {
    return Status::Internal("compile (line " + std::to_string(e->line) +
                            "): " + msg);
  }

  // --- small plan builders --------------------------------------------

  /// Constant singleton sequence: one (iter, 1, item) row per loop iter.
  OpPtr ConstSeq(OpPtr loop, Item item) {
    return alg::Attach(
        alg::Attach(std::move(loop), kPos, bat::ColType::kInt,
                    Item::Int(1)),
        kItem, bat::ColType::kItem, item);
  }

  /// Distinct iters of a sequence plan: schema (iter).
  OpPtr IterSet(OpPtr q) {
    return alg::Distinct(
        alg::Project(std::move(q), {{kIter, kIter}}), {kIter});
  }

  /// Keep only rows whose iter appears in `loop`.
  OpPtr RestrictToLoop(OpPtr q, OpPtr loop) {
    ColId lc = Col("l");
    OpPtr lr = alg::Project(std::move(loop), {{lc, kIter}});
    OpPtr j = alg::EquiJoin(std::move(q), std::move(lr), kIter, lc);
    return alg::Project(std::move(j),
                        {{kIter, kIter}, {kPos, kPos}, {kItem, kItem}});
  }

  /// Reshape any plan with iter/pos/item columns to exactly that schema.
  OpPtr ProjIPI(OpPtr q) {
    return alg::Project(std::move(q),
                        {{kIter, kIter}, {kPos, kPos}, {kItem, kItem}});
  }

  /// (iter, item) plan -> (iter, pos=1, item).
  OpPtr AddPos1(OpPtr q) {
    return ProjIPI(alg::Attach(std::move(q), kPos, bat::ColType::kInt,
                               Item::Int(1)));
  }

  /// Map relation (inner at `from`, outer at `to`), from > to, composed
  /// from the scope map chain (paper Fig. 3(f)).
  OpPtr ComposeMaps(int from, int to) {
    OpPtr m = maps_[static_cast<size_t>(from) - 1];
    for (int d = from - 2; d >= to; --d) {
      ColId in2 = Col("mi"), out2 = Col("mo");
      OpPtr mr = alg::Project(maps_[static_cast<size_t>(d)],
                              {{in2, kInner}, {out2, kOuter}});
      OpPtr j = alg::EquiJoin(m, std::move(mr), kOuter, in2);
      m = alg::Project(std::move(j), {{kInner, kInner}, {kOuter, out2}});
    }
    return m;
  }

  /// A variable use: lift the binding-scope plan into the current scope
  /// through the map chain, then restrict to the (possibly filtered)
  /// loop relation.
  OpPtr LiftVar(const VarEntry& ve, const OpPtr& loop, int depth) {
    OpPtr p = ve.plan;
    if (ve.depth < depth) {
      OpPtr m = ComposeMaps(depth, ve.depth);
      ColId in = Col("mi"), out = Col("mo");
      OpPtr mr = alg::Project(std::move(m), {{in, kInner}, {out, kOuter}});
      OpPtr j = alg::EquiJoin(std::move(p), std::move(mr), kIter, out);
      p = alg::Project(std::move(j),
                       {{kIter, in}, {kPos, kPos}, {kItem, kItem}});
    }
    if (loop.get() == scope_loops_[static_cast<size_t>(depth)].get()) {
      return p;  // unfiltered scope loop: every iter is valid
    }
    return RestrictToLoop(std::move(p), loop);
  }

  /// Materialize a boolean singleton per loop iter from a set of "true"
  /// iters.
  OpPtr BoolItems(OpPtr true_iters, OpPtr loop) {
    OpPtr t = ConstSeq(true_iters, Item::Bool(true));
    OpPtr f = ConstSeq(
        alg::Difference(std::move(loop), std::move(true_iters), {kIter}),
        Item::Bool(false));
    return alg::DisjointUnion(std::move(t), std::move(f));
  }

  /// Add a (iter, 1, item) row for every loop iter missing from q.
  OpPtr PatchMissing(OpPtr q, OpPtr loop, Item item) {
    OpPtr missing =
        alg::Difference(std::move(loop), q, {kIter});
    return alg::DisjointUnion(std::move(q),
                              ConstSeq(std::move(missing), item));
  }

  /// First item per iter (rows with pos == 1): schema (iter, item).
  /// pos is an INT column, so the comparison goes through kIntToItem.
  OpPtr FirstItems(OpPtr q) {
    ColId pi = Col("pi"), one = Col("one"), b = Col("b");
    OpPtr x = alg::MapFun1(std::move(q), Fun1::kIntToItem, kPos, pi);
    x = alg::Attach(std::move(x), one, bat::ColType::kItem, Item::Int(1));
    x = alg::MapFun2(std::move(x), Fun2::kCmpEq, pi, one, b);
    x = alg::Select(std::move(x), b);
    return alg::Project(std::move(x), {{kIter, kIter}, {kItem, kItem}});
  }

  /// Atomize the item column (fn:data), keeping the (iter,pos,item)
  /// shape.
  OpPtr Atomize(OpPtr q) {
    ColId d = Col("d");
    OpPtr x = alg::MapFun1(std::move(q), Fun1::kData, kItem, d);
    return alg::Project(std::move(x),
                        {{kIter, kIter}, {kPos, kPos}, {kItem, d}});
  }

  /// Join two singleton-per-iter sequence plans on iter; result columns:
  /// iter, pos, item (left), `right_item` (right's item).
  OpPtr JoinOnIter(OpPtr a, OpPtr b, ColId right_item) {
    ColId i2 = Col("i");
    OpPtr br =
        alg::Project(std::move(b), {{i2, kIter}, {right_item, kItem}});
    return alg::EquiJoin(std::move(a), std::move(br), kIter, i2);
  }

  // --- effective boolean value ------------------------------------------

  /// Compile `e` to the SET of loop iters where its EBV is true
  /// (schema: iter).
  Result<OpPtr> EBV(const ExprPtr& e, OpPtr loop, Env& env, int depth) {
    if (e->kind == ExprKind::kBinOp) {
      switch (e->op) {
        case BinOp::kAnd: {
          PF_ASSIGN_OR_RETURN(OpPtr a, EBV(e->children[0], loop, env, depth));
          PF_ASSIGN_OR_RETURN(OpPtr b, EBV(e->children[1], loop, env, depth));
          ColId i2 = Col("i");
          OpPtr br = alg::Project(std::move(b), {{i2, kIter}});
          return alg::Project(
              alg::EquiJoin(std::move(a), std::move(br), kIter, i2),
              {{kIter, kIter}});
        }
        case BinOp::kOr: {
          PF_ASSIGN_OR_RETURN(OpPtr a, EBV(e->children[0], loop, env, depth));
          PF_ASSIGN_OR_RETURN(OpPtr b, EBV(e->children[1], loop, env, depth));
          // Disjoint union via difference keeps the union disjoint.
          OpPtr bonly = alg::Difference(std::move(b), a, {kIter});
          return alg::DisjointUnion(std::move(a), std::move(bonly));
        }
        case BinOp::kGenEq:
        case BinOp::kGenNe:
        case BinOp::kGenLt:
        case BinOp::kGenLe:
        case BinOp::kGenGt:
        case BinOp::kGenGe:
          return GenCmpTrueIters(e, std::move(loop), env, depth);
        default:
          break;
      }
    }
    if (e->kind == ExprKind::kFunCall) {
      const std::string& f = e->sval;
      if (f == "not") {
        PF_ASSIGN_OR_RETURN(OpPtr t, EBV(e->children[0], loop, env, depth));
        return alg::Difference(std::move(loop), std::move(t), {kIter});
      }
      if (f == "boolean") return EBV(e->children[0], loop, env, depth);
      if (f == "exists") {
        PF_ASSIGN_OR_RETURN(OpPtr q,
                            Comp(e->children[0], loop, env, depth));
        return IterSet(std::move(q));
      }
      if (f == "empty") {
        PF_ASSIGN_OR_RETURN(OpPtr q,
                            Comp(e->children[0], loop, env, depth));
        return alg::Difference(std::move(loop), IterSet(std::move(q)),
                               {kIter});
      }
      if (f == "true") return loop;
      if (f == "false") {
        return alg::LitTable({kIter}, {bat::ColType::kInt}, {});
      }
    }
    // Generic: iters having at least one truthy item (nodes are truthy).
    PF_ASSIGN_OR_RETURN(OpPtr q, Comp(e, std::move(loop), env, depth));
    ColId b = Col("b");
    OpPtr x = alg::MapFun1(std::move(q), Fun1::kItemToBool, kItem, b);
    x = alg::Select(std::move(x), b);
    return IterSet(std::move(x));
  }

  /// General comparison: set of iters where some pair of atomized items
  /// satisfies the comparison.
  Result<OpPtr> GenCmpTrueIters(const ExprPtr& e, OpPtr loop, Env& env,
                                int depth) {
    PF_ASSIGN_OR_RETURN(OpPtr a, Comp(e->children[0], loop, env, depth));
    PF_ASSIGN_OR_RETURN(OpPtr b, Comp(e->children[1], loop, env, depth));
    a = Atomize(std::move(a));
    b = Atomize(std::move(b));
    ColId rc = Col("r"), bc = Col("b");
    OpPtr j = JoinOnIter(std::move(a), std::move(b), rc);
    Fun2 f;
    switch (e->op) {
      case BinOp::kGenEq:
        f = Fun2::kCmpEq;
        break;
      case BinOp::kGenNe:
        f = Fun2::kCmpNe;
        break;
      case BinOp::kGenLt:
        f = Fun2::kCmpLt;
        break;
      case BinOp::kGenLe:
        f = Fun2::kCmpLe;
        break;
      case BinOp::kGenGt:
        f = Fun2::kCmpGt;
        break;
      default:
        f = Fun2::kCmpGe;
        break;
    }
    j = alg::MapFun2(std::move(j), f, kItem, rc, bc);
    j = alg::Select(std::move(j), bc);
    return IterSet(std::move(j));
  }

  // --- main dispatch ----------------------------------------------------

  Result<OpPtr> Comp(const ExprPtr& e, OpPtr loop, Env& env, int depth) {
    switch (e->kind) {
      case ExprKind::kIntLit:
        return ConstSeq(std::move(loop), Item::Int(e->ival));
      case ExprKind::kDblLit:
        return ConstSeq(std::move(loop), Item::Dbl(e->dval));
      case ExprKind::kStrLit:
        return ConstSeq(std::move(loop), StrItem(e->sval));
      case ExprKind::kEmpty:
        return alg::EmptySeq();
      case ExprKind::kSequence:
        return CompSequence(e, std::move(loop), env, depth);
      case ExprKind::kVar: {
        auto it = env.find(e->sval);
        if (it == env.end()) {
          return Err(e, "unbound variable $" + e->sval);
        }
        return LiftVar(it->second, loop, depth);
      }
      case ExprKind::kFlwor:
        return CompFlwor(e, std::move(loop), env, depth);
      case ExprKind::kIf: {
        PF_ASSIGN_OR_RETURN(OpPtr t_iters,
                            EBV(e->children[0], loop, env, depth));
        OpPtr f_iters = alg::Difference(loop, t_iters, {kIter});
        PF_ASSIGN_OR_RETURN(OpPtr qt,
                            Comp(e->children[1], t_iters, env, depth));
        PF_ASSIGN_OR_RETURN(OpPtr qf,
                            Comp(e->children[2], f_iters, env, depth));
        return alg::DisjointUnion(std::move(qt), std::move(qf));
      }
      case ExprKind::kTypeswitch:
        return CompTypeswitch(e, std::move(loop), env, depth);
      case ExprKind::kBinOp:
        return CompBinOp(e, std::move(loop), env, depth);
      case ExprKind::kUnaryMinus: {
        PF_ASSIGN_OR_RETURN(OpPtr q,
                            Comp(e->children[0], loop, env, depth));
        ColId n = Col("n");
        q = alg::MapFun1(Atomize(std::move(q)), Fun1::kNeg, kItem, n);
        return alg::Project(std::move(q), {{kIter, kIter},
                                           {kPos, kPos},
                                           {kItem, n}});
      }
      case ExprKind::kAxisStep: {
        if (e->children[0]->kind != ExprKind::kVar) {
          return Err(e, "step context must be a variable (normalize bug)");
        }
        PF_ASSIGN_OR_RETURN(OpPtr ctx,
                            Comp(e->children[0], loop, env, depth));
        accel::NodeTest test = MakeNodeTest(e->test);
        OpPtr s = alg::Step(
            alg::Project(std::move(ctx), {{kIter, kIter}, {kItem, kItem}}),
            e->axis, test);
        ColId p = Col("p");
        s = alg::RowNum(std::move(s), p, {kIter}, {kItem});
        return alg::Project(std::move(s),
                            {{kIter, kIter}, {kPos, p}, {kItem, kItem}});
      }
      case ExprKind::kFunCall:
        return CompCall(e, std::move(loop), env, depth);
      case ExprKind::kElemConstr:
        return CompElem(e, std::move(loop), env, depth);
      case ExprKind::kAttrConstr:
        return Err(e, "attribute constructor outside element content");
      case ExprKind::kTextConstr: {
        PF_ASSIGN_OR_RETURN(OpPtr q,
                            Comp(e->children[0], loop, env, depth));
        q = PatchMissing(Atomize(std::move(q)), loop, StrItem(""));
        return AddPos1(alg::TextConstr(std::move(q)));
      }
      case ExprKind::kDdo: {
        // Loop-lifted step fusion: the normalizer emits every path step
        // as fs:ddo(for $dot in e return $dot/axis::test). Evaluating
        // the staircase join once per *iteration* of e (grouping all
        // context nodes of an iter) is the paper's actual compilation
        // scheme; it avoids one iteration scope per context node.
        const ExprPtr& ch = e->children[0];
        if (ch->kind == ExprKind::kFlwor && ch->clauses.size() == 1 &&
            !ch->clauses[0].is_let && ch->clauses[0].pos_var.empty() &&
            !ch->where && ch->order_keys.empty() &&
            ch->children[0]->kind == ExprKind::kAxisStep &&
            ch->children[0]->children[0]->kind == ExprKind::kVar &&
            ch->children[0]->children[0]->sval == ch->clauses[0].var) {
          PF_ASSIGN_OR_RETURN(
              OpPtr q, Comp(ch->clauses[0].expr, loop, env, depth));
          const ExprPtr& st = ch->children[0];
          OpPtr s = alg::Step(
              alg::Project(std::move(q),
                           {{kIter, kIter}, {kItem, kItem}}),
              st->axis, MakeNodeTest(st->test));
          ColId p = Col("p");
          s = alg::RowNum(std::move(s), p, {kIter}, {kItem});
          return alg::Project(
              std::move(s),
              {{kIter, kIter}, {kPos, p}, {kItem, kItem}});
        }
        PF_ASSIGN_OR_RETURN(OpPtr q,
                            Comp(e->children[0], loop, env, depth));
        OpPtr d = alg::Distinct(
            alg::Project(std::move(q), {{kIter, kIter}, {kItem, kItem}}),
            {kIter, kItem});
        ColId p = Col("p");
        d = alg::RowNum(std::move(d), p, {kIter}, {kItem});
        return alg::Project(std::move(d),
                            {{kIter, kIter}, {kPos, p}, {kItem, kItem}});
      }
      default:
        return Err(e, std::string("unexpected core expression '") +
                          frontend::ExprKindName(e->kind) + "'");
    }
  }

  accel::NodeTest MakeNodeTest(const frontend::StepTest& t) {
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
        return accel::NodeTest::Name(db_->pool()->Intern(t.name));
    }
    return accel::NodeTest::AnyKind();
  }

  Result<OpPtr> CompSequence(const ExprPtr& e, OpPtr loop, Env& env,
                             int depth) {
    if (e->children.empty()) return alg::EmptySeq();
    ColId ord = Col("ord");
    OpPtr u;
    for (size_t i = 0; i < e->children.size(); ++i) {
      PF_ASSIGN_OR_RETURN(OpPtr q, Comp(e->children[i], loop, env, depth));
      q = alg::Attach(ProjIPI(std::move(q)), ord, bat::ColType::kInt,
                      Item::Int(static_cast<int64_t>(i)));
      u = u ? alg::DisjointUnion(std::move(u), std::move(q)) : q;
    }
    ColId p = Col("p");
    u = alg::RowNum(std::move(u), p, {kIter}, {ord, kPos});
    return alg::Project(std::move(u),
                        {{kIter, kIter}, {kPos, p}, {kItem, kItem}});
  }

  // --- FLWOR -------------------------------------------------------------

  struct Conjunct {
    ExprPtr expr;
    bool consumed = false;
  };

  static void SplitConjuncts(const ExprPtr& e, std::vector<Conjunct>* out) {
    if (e->kind == ExprKind::kBinOp && e->op == BinOp::kAnd) {
      SplitConjuncts(e->children[0], out);
      SplitConjuncts(e->children[1], out);
      return;
    }
    out->push_back({e, false});
  }

  int ExprDepth(const ExprPtr& e, const Env& env) {
    int d = 0;
    for (const auto& v : FreeVars(e)) {
      auto it = env.find(v);
      if (it != env.end()) d = std::max(d, it->second.depth);
    }
    return d;
  }

  static bool IsComparisonOp(BinOp op, bat::CmpOp* cmp, bool* eq_like) {
    switch (op) {
      case BinOp::kGenEq:
      case BinOp::kValEq:
        *cmp = bat::CmpOp::kEq;
        *eq_like = true;
        return true;
      case BinOp::kGenNe:
      case BinOp::kValNe:
        *cmp = bat::CmpOp::kNe;
        *eq_like = false;
        return true;
      case BinOp::kGenLt:
      case BinOp::kValLt:
        *cmp = bat::CmpOp::kLt;
        *eq_like = false;
        return true;
      case BinOp::kGenLe:
      case BinOp::kValLe:
        *cmp = bat::CmpOp::kLe;
        *eq_like = false;
        return true;
      case BinOp::kGenGt:
      case BinOp::kValGt:
        *cmp = bat::CmpOp::kGt;
        *eq_like = false;
        return true;
      case BinOp::kGenGe:
      case BinOp::kValGe:
        *cmp = bat::CmpOp::kGe;
        *eq_like = false;
        return true;
      default:
        return false;
    }
  }

  static bat::CmpOp FlipCmp(bat::CmpOp c) {
    switch (c) {
      case bat::CmpOp::kLt:
        return bat::CmpOp::kGt;
      case bat::CmpOp::kLe:
        return bat::CmpOp::kGe;
      case bat::CmpOp::kGt:
        return bat::CmpOp::kLt;
      case bat::CmpOp::kGe:
        return bat::CmpOp::kLe;
      default:
        return c;
    }
  }

  Result<OpPtr> CompFlwor(const ExprPtr& e, OpPtr loop, Env& env0,
                          int depth0) {
    Env env = env0;  // local scope
    OpPtr cur_loop = std::move(loop);
    int depth = depth0;
    size_t maps0 = maps_.size();
    size_t loops0 = scope_loops_.size();

    std::vector<Conjunct> conjuncts;
    if (e->where) SplitConjuncts(e->where, &conjuncts);

    for (const auto& c : e->clauses) {
      if (c.is_let) {
        PF_ASSIGN_OR_RETURN(OpPtr q, Comp(c.expr, cur_loop, env, depth));
        env[c.var] = {q, depth};
        continue;
      }
      // Try join recognition for this for-clause.
      bool recognized = false;
      if (opts_.join_recognition && c.pos_var.empty()) {
        PF_ASSIGN_OR_RETURN(
            recognized,
            TryJoinRecognition(e, c, &conjuncts, &cur_loop, &env, &depth));
      }
      if (recognized) continue;

      // Standard loop-lifted for (paper Fig. 3(b)/(f)).
      PF_ASSIGN_OR_RETURN(OpPtr q, Comp(c.expr, cur_loop, env, depth));
      OpPtr qv = alg::RowNum(ProjIPI(std::move(q)), kInner, {},
                             {kIter, kPos});
      OpPtr map =
          alg::Project(qv, {{kInner, kInner}, {kOuter, kIter}});
      maps_.push_back(map);
      ++depth;
      cur_loop = alg::Project(qv, {{kIter, kInner}});
      scope_loops_.push_back(cur_loop);
      OpPtr vplan = AddPos1(
          alg::Project(qv, {{kIter, kInner}, {kItem, kItem}}));
      env[c.var] = {vplan, depth};
      if (!c.pos_var.empty()) {
        ColId pc = Col("pv");
        OpPtr pp =
            alg::Project(qv, {{kIter, kInner}, {pc, kPos}});
        pp = alg::MapFun1(std::move(pp), Fun1::kIntToItem, pc, kItem);
        env[c.pos_var] = {
            AddPos1(alg::Project(std::move(pp),
                                 {{kIter, kIter}, {kItem, kItem}})),
            depth};
      }
    }

    // Remaining where conjuncts filter the loop.
    for (auto& cj : conjuncts) {
      if (cj.consumed) continue;
      PF_ASSIGN_OR_RETURN(OpPtr t, EBV(cj.expr, cur_loop, env, depth));
      cur_loop = t;
    }

    PF_ASSIGN_OR_RETURN(OpPtr ret,
                        Comp(e->children[0], cur_loop, env, depth));

    OpPtr result;
    if (depth == depth0) {
      // Only let clauses: the scope never changed.
      result = ProjIPI(std::move(ret));
    } else {
      // Back-map to the original scope, re-numbering positions by
      // (order keys, binding order, inner position) — paper Fig. 3(g).
      OpPtr m = ComposeMaps(depth, depth0);
      ColId in = Col("mi"), out = Col("mo");
      OpPtr mr = alg::Project(std::move(m), {{in, kInner}, {out, kOuter}});
      OpPtr j = alg::EquiJoin(ProjIPI(std::move(ret)), std::move(mr),
                              kIter, in);
      std::vector<ColId> order;
      std::vector<uint8_t> desc;
      for (const auto& k : e->order_keys) {
        PF_ASSIGN_OR_RETURN(OpPtr kq, Comp(k.key, cur_loop, env, depth));
        kq = Atomize(ProjIPI(std::move(kq)));
        // Missing keys sort first (ascending): patch with the minimal
        // item kind (bool), cf. "empty least".
        kq = PatchMissing(std::move(kq), cur_loop, Item::Bool(false));
        ColId ki = Col("ki"), kv = Col("kv");
        OpPtr kr =
            alg::Project(std::move(kq), {{ki, kIter}, {kv, kItem}});
        j = alg::EquiJoin(std::move(j), std::move(kr), kIter, ki);
        order.push_back(kv);
        desc.push_back(k.ascending ? 0 : 1);
      }
      order.push_back(kIter);
      order.push_back(kPos);
      desc.push_back(0);
      desc.push_back(0);
      ColId p = Col("p");
      j = alg::RowNum(std::move(j), p, {out}, order, desc);
      result = alg::Project(std::move(j),
                            {{kIter, out}, {kPos, p}, {kItem, kItem}});
    }

    maps_.resize(maps0);
    scope_loops_.resize(loops0);
    return result;
  }

  /// The paper's join recognition (Sec. 1): rewrite
  ///   for $v in D(outer-invariant) ... where f($v) cmp g(outer)
  /// into a value join between f over D and g over the outer loop,
  /// producing the (already filtered) map relation directly — instead of
  /// crossing the outer loop with D and filtering afterwards.
  Result<bool> TryJoinRecognition(const ExprPtr& flwor,
                                  const frontend::ForLetClause& c,
                                  std::vector<Conjunct>* conjuncts,
                                  OpPtr* cur_loop, Env* env, int* depth) {
    (void)flwor;
    // Domain must not depend on variables at the current depth unless
    // they are shallower-bound; it must be compilable at its own depth.
    for (const auto& v : FreeVars(c.expr)) {
      if (!env->count(v)) return false;  // safety: unknown var
    }
    int dD = ExprDepth(c.expr, *env);
    if (dD > *depth) return false;

    // Find a usable conjunct.
    for (auto& cj : *conjuncts) {
      if (cj.consumed) continue;
      if (cj.expr->kind != ExprKind::kBinOp) continue;
      bat::CmpOp cmp;
      bool eq_like;
      if (!IsComparisonOp(cj.expr->op, &cmp, &eq_like)) continue;
      auto fv_l = FreeVars(cj.expr->children[0]);
      auto fv_r = FreeVars(cj.expr->children[1]);
      ExprPtr vside, oside;
      if (fv_l.size() == 1 && fv_l.count(c.var) && !fv_r.count(c.var)) {
        vside = cj.expr->children[0];
        oside = cj.expr->children[1];
      } else if (fv_r.size() == 1 && fv_r.count(c.var) &&
                 !fv_l.count(c.var)) {
        vside = cj.expr->children[1];
        oside = cj.expr->children[0];
        cmp = FlipCmp(cmp);
      } else {
        continue;
      }
      // The outer side must be fully bound already.
      bool ok = true;
      for (const auto& v : FreeVars(oside)) {
        if (!env->count(v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      // ---- build the join ------------------------------------------
      // Domain at its own depth.
      PF_ASSIGN_OR_RETURN(
          OpPtr qD,
          Comp(c.expr, scope_loops_[static_cast<size_t>(dD)], *env, dD));
      OpPtr qvD = alg::RowNum(ProjIPI(std::move(qD)), kInner, {},
                              {kIter, kPos});

      // f($v) over the D-scope (depth dD+1), with a temporarily
      // truncated scope chain.
      std::vector<OpPtr> saved_maps = maps_;
      std::vector<OpPtr> saved_loops = scope_loops_;
      maps_.resize(static_cast<size_t>(dD));
      scope_loops_.resize(static_cast<size_t>(dD) + 1);
      OpPtr mapD =
          alg::Project(qvD, {{kInner, kInner}, {kOuter, kIter}});
      maps_.push_back(mapD);
      OpPtr loopV = alg::Project(qvD, {{kIter, kInner}});
      scope_loops_.push_back(loopV);
      Env envD = *env;
      envD[c.var] = {
          AddPos1(alg::Project(qvD, {{kIter, kInner}, {kItem, kItem}})),
          dD + 1};
      Result<OpPtr> q1r = Comp(vside, loopV, envD, dD + 1);
      maps_ = std::move(saved_maps);
      scope_loops_ = std::move(saved_loops);
      PF_RETURN_NOT_OK(q1r.status());
      OpPtr q1 = Atomize(ProjIPI(std::move(q1r).value()));

      // g(outer) at the current scope.
      PF_ASSIGN_OR_RETURN(OpPtr q2, Comp(oside, *cur_loop, *env, *depth));
      q2 = Atomize(ProjIPI(std::move(q2)));

      ColId vin = Col("vin"), vkey = Col("vk");
      ColId oit = Col("oit"), okey = Col("ok");
      OpPtr q1p =
          alg::Project(std::move(q1), {{vin, kIter}, {vkey, kItem}});
      OpPtr q2p =
          alg::Project(std::move(q2), {{oit, kIter}, {okey, kItem}});
      OpPtr pairs =
          eq_like
              ? alg::EquiJoin(std::move(q2p), std::move(q1p), okey, vkey)
              : alg::ThetaJoin(std::move(q2p), std::move(q1p), okey, vkey,
                               FlipCmp(cmp));
      // (note: sides swapped so we pass the comparison as outer-vs-v.)

      // Consistency: the D-iteration the binding came from must be the
      // dD-ancestor of the outer iter.
      if (dD > 0) {
        ColId anc = Col("anc"), dout = Col("dout");
        if (*depth > dD) {
          OpPtr m = ComposeMaps(*depth, dD);
          ColId mi = Col("mi");
          OpPtr mr =
              alg::Project(std::move(m), {{mi, kInner}, {anc, kOuter}});
          pairs = alg::EquiJoin(std::move(pairs), std::move(mr), oit, mi);
        }
        // (when *depth == dD the ancestor is the outer iter itself)
        ColId di = Col("di");
        OpPtr mDr = alg::Project(mapD, {{di, kInner}, {dout, kOuter}});
        pairs = alg::EquiJoin(std::move(pairs), std::move(mDr), vin, di);
        // Filter anc == dout (or oit == dout when same depth).
        ColId lhs = (*depth > dD) ? anc : oit;
        ColId li = Col("li"), ri = Col("ri"), bb = Col("b");
        pairs = alg::MapFun1(std::move(pairs), Fun1::kIntToItem, lhs, li);
        pairs = alg::MapFun1(std::move(pairs), Fun1::kIntToItem, dout, ri);
        pairs = alg::MapFun2(std::move(pairs), Fun2::kCmpEq, li, ri, bb);
        pairs = alg::Select(std::move(pairs), bb);
      }

      // Multiple equal values must not multiply bindings: a binding
      // joins at most once per (outer, v) pair.
      OpPtr pd = alg::Distinct(
          alg::Project(std::move(pairs), {{vin, vin}, {oit, oit}}),
          {vin, oit});

      // New scope: one iteration per surviving (outer, binding) pair,
      // ordered by (outer iter, domain order).
      OpPtr qn = alg::RowNum(std::move(pd), kInner, {}, {oit, vin});
      OpPtr map_new =
          alg::Project(qn, {{kInner, kInner}, {kOuter, oit}});
      maps_.push_back(map_new);
      ++*depth;
      *cur_loop = alg::Project(qn, {{kIter, kInner}});
      scope_loops_.push_back(*cur_loop);

      ColId di2 = Col("di"), ditem = Col("dv");
      OpPtr qvDr =
          alg::Project(qvD, {{di2, kInner}, {ditem, kItem}});
      OpPtr vj = alg::EquiJoin(qn, std::move(qvDr), vin, di2);
      OpPtr vplan = AddPos1(
          alg::Project(std::move(vj), {{kIter, kInner}, {kItem, ditem}}));
      (*env)[c.var] = {vplan, *depth};

      cj.consumed = true;
      if (stats_) stats_->joins_recognized++;
      return true;
    }
    return false;
  }

  // --- operators ----------------------------------------------------------

  Result<OpPtr> CompBinOp(const ExprPtr& e, OpPtr loop, Env& env,
                          int depth) {
    switch (e->op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kIdiv:
      case BinOp::kMod: {
        PF_ASSIGN_OR_RETURN(OpPtr a, Comp(e->children[0], loop, env, depth));
        PF_ASSIGN_OR_RETURN(OpPtr b, Comp(e->children[1], loop, env, depth));
        Fun2 f;
        switch (e->op) {
          case BinOp::kAdd:
            f = Fun2::kAdd;
            break;
          case BinOp::kSub:
            f = Fun2::kSub;
            break;
          case BinOp::kMul:
            f = Fun2::kMul;
            break;
          case BinOp::kDiv:
            f = Fun2::kDiv;
            break;
          case BinOp::kIdiv:
            f = Fun2::kIdiv;
            break;
          default:
            f = Fun2::kMod;
            break;
        }
        ColId rc = Col("r"), res = Col("v");
        OpPtr j = JoinOnIter(Atomize(std::move(a)), Atomize(std::move(b)),
                             rc);
        j = alg::MapFun2(std::move(j), f, kItem, rc, res);
        return alg::Project(std::move(j), {{kIter, kIter},
                                           {kPos, kPos},
                                           {kItem, res}});
      }
      case BinOp::kValEq:
      case BinOp::kValNe:
      case BinOp::kValLt:
      case BinOp::kValLe:
      case BinOp::kValGt:
      case BinOp::kValGe: {
        PF_ASSIGN_OR_RETURN(OpPtr a, Comp(e->children[0], loop, env, depth));
        PF_ASSIGN_OR_RETURN(OpPtr b, Comp(e->children[1], loop, env, depth));
        Fun2 f;
        switch (e->op) {
          case BinOp::kValEq:
            f = Fun2::kCmpEq;
            break;
          case BinOp::kValNe:
            f = Fun2::kCmpNe;
            break;
          case BinOp::kValLt:
            f = Fun2::kCmpLt;
            break;
          case BinOp::kValLe:
            f = Fun2::kCmpLe;
            break;
          case BinOp::kValGt:
            f = Fun2::kCmpGt;
            break;
          default:
            f = Fun2::kCmpGe;
            break;
        }
        ColId rc = Col("r"), bc = Col("b"), res = Col("v");
        OpPtr j = JoinOnIter(Atomize(std::move(a)), Atomize(std::move(b)),
                             rc);
        j = alg::MapFun2(std::move(j), f, kItem, rc, bc);
        j = alg::MapFun1(std::move(j), Fun1::kBoolToItem, bc, res);
        return alg::Project(std::move(j), {{kIter, kIter},
                                           {kPos, kPos},
                                           {kItem, res}});
      }
      case BinOp::kIs:
      case BinOp::kBefore:
      case BinOp::kAfter: {
        PF_ASSIGN_OR_RETURN(OpPtr a, Comp(e->children[0], loop, env, depth));
        PF_ASSIGN_OR_RETURN(OpPtr b, Comp(e->children[1], loop, env, depth));
        Fun2 f = e->op == BinOp::kIs
                     ? Fun2::kIs
                     : (e->op == BinOp::kBefore ? Fun2::kBefore
                                                : Fun2::kAfter);
        ColId rc = Col("r"), bc = Col("b"), res = Col("v");
        OpPtr j = JoinOnIter(ProjIPI(std::move(a)), ProjIPI(std::move(b)),
                             rc);
        j = alg::MapFun2(std::move(j), f, kItem, rc, bc);
        j = alg::MapFun1(std::move(j), Fun1::kBoolToItem, bc, res);
        return alg::Project(std::move(j), {{kIter, kIter},
                                           {kPos, kPos},
                                           {kItem, res}});
      }
      case BinOp::kGenEq:
      case BinOp::kGenNe:
      case BinOp::kGenLt:
      case BinOp::kGenLe:
      case BinOp::kGenGt:
      case BinOp::kGenGe: {
        PF_ASSIGN_OR_RETURN(OpPtr t,
                            GenCmpTrueIters(e, loop, env, depth));
        return BoolItems(std::move(t), std::move(loop));
      }
      case BinOp::kAnd: {
        PF_ASSIGN_OR_RETURN(OpPtr t, EBV(e, loop, env, depth));
        return BoolItems(std::move(t), std::move(loop));
      }
      case BinOp::kOr: {
        PF_ASSIGN_OR_RETURN(OpPtr t, EBV(e, loop, env, depth));
        return BoolItems(std::move(t), std::move(loop));
      }
      case BinOp::kUnion:
        return Err(e, "'|' should have been normalized to fs:ddo");
    }
    return Err(e, "unhandled binary operator");
  }

  Result<OpPtr> CompCall(const ExprPtr& e, OpPtr loop, Env& env,
                         int depth) {
    const std::string& f = e->sval;
    auto arg = [&](size_t i) -> Result<OpPtr> {
      return Comp(e->children[i], loop, env, depth);
    };

    if (f == "true") return ConstSeq(std::move(loop), Item::Bool(true));
    if (f == "false") return ConstSeq(std::move(loop), Item::Bool(false));

    if (f == "doc") {
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      return AddPos1(alg::DocRoot(
          alg::Project(std::move(q), {{kIter, kIter}, {kItem, kItem}})));
    }
    if (f == "root") {
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      ColId r = Col("r");
      q = alg::MapFun1(ProjIPI(std::move(q)), Fun1::kRootNode, kItem, r);
      return alg::Project(std::move(q),
                          {{kIter, kIter}, {kPos, kPos}, {kItem, r}});
    }
    if (f == "data") {
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      return Atomize(ProjIPI(std::move(q)));
    }
    if (f == "string" || f == "number" || f == "name" ||
        f == "local-name") {
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      Fun1 fn = f == "number"
                    ? Fun1::kNumberFn
                    : (f == "string" ? Fun1::kStringFn : Fun1::kNameFn);
      ColId r = Col("r");
      q = alg::MapFun1(ProjIPI(std::move(q)), fn, kItem, r);
      q = alg::Project(std::move(q),
                       {{kIter, kIter}, {kPos, kPos}, {kItem, r}});
      Item patch = f == "number"
                       ? Item::Dbl(std::numeric_limits<double>::quiet_NaN())
                       : StrItem("");
      return PatchMissing(std::move(q), loop, patch);
    }
    if (f == "string-length") {
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      ColId s = Col("s"), r = Col("r");
      q = alg::MapFun1(ProjIPI(std::move(q)), Fun1::kStringFn, kItem, s);
      q = alg::Project(std::move(q),
                       {{kIter, kIter}, {kPos, kPos}, {kItem, s}});
      q = PatchMissing(std::move(q), loop, StrItem(""));
      q = alg::MapFun1(std::move(q), Fun1::kStrLen, kItem, r);
      return alg::Project(std::move(q),
                          {{kIter, kIter}, {kPos, kPos}, {kItem, r}});
    }
    if (f == "count" || f == "sum" || f == "avg" || f == "max" ||
        f == "min") {
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      bat::AggKind k;
      if (f == "count") {
        k = bat::AggKind::kCount;
      } else if (f == "sum") {
        k = bat::AggKind::kSum;
      } else if (f == "avg") {
        k = bat::AggKind::kAvg;
      } else if (f == "max") {
        k = bat::AggKind::kMax;
      } else {
        k = bat::AggKind::kMin;
      }
      q = ProjIPI(std::move(q));
      if (f != "count") q = Atomize(std::move(q));
      OpPtr a = alg::Aggr(std::move(q), k, kIter,
                          f == "count" ? bat::kNoCol : kItem, kItem);
      a = AddPos1(std::move(a));
      if (f == "count" || f == "sum") {
        // count/sum of an empty sequence is 0.
        a = PatchMissing(std::move(a), loop, Item::Int(0));
      }
      return a;
    }
    if (f == "empty" || f == "exists" || f == "not" || f == "boolean") {
      PF_ASSIGN_OR_RETURN(OpPtr t, EBV(e, loop, env, depth));
      return BoolItems(std::move(t), std::move(loop));
    }
    if (f == "contains" || f == "starts-with") {
      PF_ASSIGN_OR_RETURN(OpPtr a, arg(0));
      PF_ASSIGN_OR_RETURN(OpPtr b, arg(1));
      a = PatchMissing(Atomize(ProjIPI(std::move(a))), loop, StrItem(""));
      b = PatchMissing(Atomize(ProjIPI(std::move(b))), loop, StrItem(""));
      ColId rc = Col("r"), bc = Col("b"), res = Col("v");
      OpPtr j = JoinOnIter(std::move(a), std::move(b), rc);
      j = alg::MapFun2(std::move(j),
                       f == "contains" ? Fun2::kContains
                                       : Fun2::kStartsWith,
                       kItem, rc, bc);
      j = alg::MapFun1(std::move(j), Fun1::kBoolToItem, bc, res);
      return alg::Project(std::move(j), {{kIter, kIter},
                                         {kPos, kPos},
                                         {kItem, res}});
    }
    if (f == "concat") {
      PF_ASSIGN_OR_RETURN(OpPtr acc, arg(0));
      acc = PatchMissing(Atomize(ProjIPI(std::move(acc))), loop,
                         StrItem(""));
      for (size_t i = 1; i < e->children.size(); ++i) {
        PF_ASSIGN_OR_RETURN(OpPtr b, arg(i));
        b = PatchMissing(Atomize(ProjIPI(std::move(b))), loop, StrItem(""));
        ColId rc = Col("r"), res = Col("v");
        OpPtr j = JoinOnIter(std::move(acc), std::move(b), rc);
        j = alg::MapFun2(std::move(j), Fun2::kConcat, kItem, rc, res);
        acc = alg::Project(std::move(j), {{kIter, kIter},
                                          {kPos, kPos},
                                          {kItem, res}});
      }
      return acc;
    }
    if (f == "substring") {
      PF_ASSIGN_OR_RETURN(OpPtr str, arg(0));
      PF_ASSIGN_OR_RETURN(OpPtr start, arg(1));
      str = PatchMissing(Atomize(ProjIPI(std::move(str))), loop,
                         StrItem(""));
      start = PatchMissing(Atomize(ProjIPI(std::move(start))), loop,
                           Item::Dbl(1));
      ColId rc = Col("r"), res = Col("v");
      OpPtr j = JoinOnIter(std::move(str), std::move(start), rc);
      j = alg::MapFun2(std::move(j), Fun2::kSubstrFrom, kItem, rc, res);
      OpPtr cur = alg::Project(std::move(j), {{kIter, kIter},
                                              {kPos, kPos},
                                              {kItem, res}});
      if (e->children.size() == 3) {
        PF_ASSIGN_OR_RETURN(OpPtr len, arg(2));
        len = PatchMissing(Atomize(ProjIPI(std::move(len))), loop,
                           Item::Dbl(0));
        ColId rc2 = Col("r"), res2 = Col("v");
        OpPtr j2 = JoinOnIter(std::move(cur), std::move(len), rc2);
        j2 = alg::MapFun2(std::move(j2), Fun2::kSubstrLen, kItem, rc2,
                          res2);
        cur = alg::Project(std::move(j2), {{kIter, kIter},
                                           {kPos, kPos},
                                           {kItem, res2}});
      }
      return cur;
    }
    if (f == "string-join") {
      PF_ASSIGN_OR_RETURN(OpPtr content, arg(0));
      PF_ASSIGN_OR_RETURN(OpPtr sep, arg(1));
      content = PatchMissing(Atomize(ProjIPI(std::move(content))), loop,
                             StrItem(""));
      sep = PatchMissing(Atomize(ProjIPI(std::move(sep))), loop,
                         StrItem(""));
      return AddPos1(alg::StrJoin(std::move(content), std::move(sep)));
    }
    if (f == "distinct-values") {
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      q = Atomize(ProjIPI(std::move(q)));
      OpPtr d = alg::Distinct(
          alg::Project(std::move(q), {{kIter, kIter}, {kItem, kItem}}),
          {kIter, kItem});
      ColId p = Col("p");
      d = alg::RowNum(std::move(d), p, {kIter}, {});
      return alg::Project(std::move(d),
                          {{kIter, kIter}, {kPos, p}, {kItem, kItem}});
    }
    if (f == "zero-or-one" || f == "exactly-one") {
      // Cardinality is not checked (dynamically typed engine).
      PF_ASSIGN_OR_RETURN(OpPtr q, arg(0));
      return ProjIPI(std::move(q));
    }
    return Err(e, "unsupported built-in function " + f + "()");
  }

  Result<OpPtr> CompElem(const ExprPtr& e, OpPtr loop, Env& env,
                         int depth) {
    PF_ASSIGN_OR_RETURN(OpPtr name_q,
                        Comp(e->children[0], loop, env, depth));
    name_q = ProjIPI(std::move(name_q));

    // Assemble content: attributes and ordinary content in order.
    ColId ord = Col("ord");
    OpPtr u;
    int64_t ordv = 0;
    for (size_t i = 1; i < e->children.size(); ++i) {
      const ExprPtr& ch = e->children[i];
      OpPtr q;
      if (ch->kind == ExprKind::kAttrConstr) {
        PF_ASSIGN_OR_RETURN(q, CompAttr(ch, loop, env, depth));
      } else {
        PF_ASSIGN_OR_RETURN(q, Comp(ch, loop, env, depth));
        q = ProjIPI(std::move(q));
      }
      q = alg::Attach(std::move(q), ord, bat::ColType::kInt,
                      Item::Int(ordv++));
      u = u ? alg::DisjointUnion(std::move(u), std::move(q)) : q;
    }
    OpPtr content;
    if (u) {
      ColId p = Col("p");
      u = alg::RowNum(std::move(u), p, {kIter}, {ord, kPos});
      content = alg::Project(std::move(u), {{kIter, kIter},
                                            {kPos, p},
                                            {kItem, kItem}});
    } else {
      content = alg::EmptySeq();
    }
    return AddPos1(alg::ElemConstr(std::move(name_q), std::move(content)));
  }

  Result<OpPtr> CompAttr(const ExprPtr& e, OpPtr loop, Env& env,
                         int depth) {
    // Attribute value construction: literal parts concatenate directly;
    // within one enclosed expression, items join with single spaces.
    // Per-part space joining reuses the text-constructor runtime (a
    // text node's value is exactly the space-joined item list), then
    // the parts fold with fn:concat.
    OpPtr value;  // (iter, pos, item) singleton string per loop iter
    for (const ExprPtr& part : e->children) {
      OpPtr pv;
      if (part->kind == ExprKind::kStrLit) {
        pv = ConstSeq(loop, StrItem(part->sval));
      } else {
        PF_ASSIGN_OR_RETURN(OpPtr q, Comp(part, loop, env, depth));
        q = PatchMissing(Atomize(ProjIPI(std::move(q))), loop,
                         StrItem(""));
        ColId sc = Col("s");
        OpPtr t = alg::TextConstr(std::move(q));
        t = alg::MapFun1(std::move(t), Fun1::kStringFn, kItem, sc);
        pv = AddPos1(alg::Project(std::move(t),
                                  {{kIter, kIter}, {kItem, sc}}));
      }
      if (!value) {
        value = std::move(pv);
        continue;
      }
      ColId rc = Col("r"), res = Col("v");
      OpPtr j = JoinOnIter(std::move(value), std::move(pv), rc);
      j = alg::MapFun2(std::move(j), Fun2::kConcat, kItem, rc, res);
      value = alg::Project(std::move(j), {{kIter, kIter},
                                          {kPos, kPos},
                                          {kItem, res}});
    }
    if (!value) value = ConstSeq(loop, StrItem(""));
    return AddPos1(
        alg::AttrConstr(std::move(value), db_->pool()->Intern(e->sval)));
  }

  Result<OpPtr> CompTypeswitch(const ExprPtr& e, OpPtr loop, Env& env,
                               int depth) {
    PF_ASSIGN_OR_RETURN(OpPtr q, Comp(e->children[0], loop, env, depth));
    q = ProjIPI(std::move(q));
    OpPtr first = FirstItems(q);  // (iter, item)

    OpPtr remaining = loop;
    OpPtr result;
    for (const auto& c : e->cases) {
      OpPtr case_loop;
      if (c.type == frontend::TypeCase::Type::kDefault) {
        case_loop = remaining;
      } else {
        PF_ASSIGN_OR_RETURN(OpPtr matched, KindTestIters(first, c));
        ColId r2 = Col("r");
        OpPtr rr = alg::Project(remaining, {{r2, kIter}});
        case_loop = alg::Project(
            alg::EquiJoin(std::move(matched), std::move(rr), kIter, r2),
            {{kIter, kIter}});
        remaining = alg::Difference(remaining, case_loop, {kIter});
      }
      Env env2 = env;
      if (!c.var.empty()) env2[c.var] = {q, depth};
      PF_ASSIGN_OR_RETURN(OpPtr body, Comp(c.body, case_loop, env2, depth));
      result = result ? alg::DisjointUnion(std::move(result), std::move(body))
                      : body;
      if (c.type == frontend::TypeCase::Type::kDefault) break;
    }
    return result ? result : alg::EmptySeq();
  }

  /// Iters whose first operand item satisfies the case's kind test.
  Result<OpPtr> KindTestIters(const OpPtr& first,
                              const frontend::TypeCase& c) {
    using T = frontend::TypeCase::Type;
    Fun1 fn;
    switch (c.type) {
      case T::kElement:
        fn = Fun1::kIsElement;
        break;
      case T::kAttribute:
        fn = Fun1::kIsAttribute;
        break;
      case T::kText:
        fn = Fun1::kIsText;
        break;
      case T::kNode:
        fn = Fun1::kIsNode;
        break;
      case T::kInteger:
        fn = Fun1::kIsInt;
        break;
      case T::kDouble:
        fn = Fun1::kIsDouble;
        break;
      case T::kString:
        fn = Fun1::kIsString;
        break;
      case T::kBoolean:
        fn = Fun1::kIsBool;
        break;
      default:
        return Status::Internal("default case has no kind test");
    }
    ColId b = Col("b");
    OpPtr x = alg::MapFun1(first, fn, kItem, b);
    x = alg::Select(std::move(x), b);
    if (c.type == T::kElement && !c.elem_name.empty()) {
      ColId nm = Col("nm"), cn = Col("cn"), b2 = Col("b");
      x = alg::MapFun1(std::move(x), Fun1::kNameFn, kItem, nm);
      x = alg::Attach(std::move(x), cn, bat::ColType::kItem,
                      StrItem(c.elem_name));
      x = alg::MapFun2(std::move(x), Fun2::kCmpEq, nm, cn, b2);
      x = alg::Select(std::move(x), b2);
    }
    return alg::Project(std::move(x), {{kIter, kIter}});
  }

  xml::Database* db_;
  CompileOptions opts_;
  CompileStats* stats_;
  std::vector<OpPtr> maps_;
  std::vector<OpPtr> scope_loops_;
  int colc_ = 0;
};

}  // namespace

Result<algebra::OpPtr> Compile(const frontend::ExprPtr& core,
                               xml::Database* db,
                               const CompileOptions& options,
                               CompileStats* stats) {
  Impl impl(db, options, stats);
  return impl.Run(core);
}

}  // namespace pathfinder::compiler
