#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "accel/step.h"
#include "bat/item_ops.h"
#include "bat/kernel.h"
#include "engine/cache.h"
#include "engine/node_build.h"
#include "engine/profile.h"

namespace pathfinder::engine {

namespace {

namespace alg = pathfinder::algebra;
using alg::Fun1;
using alg::Fun2;
using alg::Op;
using alg::OpKind;
using bat::ColType;
using bat::Column;
using bat::ColumnPtr;
using bat::IdxVec;
using bat::RowIdx;
using bat::Table;

// --- item-level helpers -------------------------------------------------

/// fn:data on one item: nodes become untyped atomics carrying their
/// string value; atomics pass through.
Result<Item> AtomizeItem(QueryContext* ctx, const Item& it) {
  if (!it.IsNode()) return it;
  return Item::Untyped(NodeStringId(ctx, it));
}

Result<Item> ArithItem(Fun2 f, const Item& a0, const Item& b0,
                       QueryContext* ctx) {
  PF_ASSIGN_OR_RETURN(Item a, AtomizeItem(ctx, a0));
  PF_ASSIGN_OR_RETURN(Item b, AtomizeItem(ctx, b0));
  bool both_int = a.kind == ItemKind::kInt && b.kind == ItemKind::kInt;
  PF_ASSIGN_OR_RETURN(double da, bat::ItemToDouble(a, *ctx->pool()));
  PF_ASSIGN_OR_RETURN(double db, bat::ItemToDouble(b, *ctx->pool()));
  switch (f) {
    case Fun2::kAdd:
      return both_int ? Item::Int(a.AsInt() + b.AsInt())
                      : Item::Dbl(da + db);
    case Fun2::kSub:
      return both_int ? Item::Int(a.AsInt() - b.AsInt())
                      : Item::Dbl(da - db);
    case Fun2::kMul:
      return both_int ? Item::Int(a.AsInt() * b.AsInt())
                      : Item::Dbl(da * db);
    case Fun2::kDiv:
      if (db == 0.0) {
        return Status::TypeError("division by zero");
      }
      return Item::Dbl(da / db);
    case Fun2::kIdiv: {
      if (db == 0.0) {
        return Status::TypeError("integer division by zero");
      }
      return Item::Int(static_cast<int64_t>(da / db));
    }
    case Fun2::kMod: {
      if (db == 0.0) {
        return Status::TypeError("modulo by zero");
      }
      if (both_int) return Item::Int(a.AsInt() % b.AsInt());
      return Item::Dbl(std::fmod(da, db));
    }
    default:
      return Status::Internal("not an arithmetic operator");
  }
}

Result<int> CompareItems(const Item& a0, const Item& b0,
                         QueryContext* ctx) {
  PF_ASSIGN_OR_RETURN(Item a, AtomizeItem(ctx, a0));
  PF_ASSIGN_OR_RETURN(Item b, AtomizeItem(ctx, b0));
  return bat::ItemCompareValue(a, b, *ctx->pool());
}

Result<StrId> ItemAsString(QueryContext* ctx, const Item& it) {
  if (it.IsNode()) return NodeStringId(ctx, it);
  return bat::ItemToString(it, ctx->pool());
}

// --- Fun1 ----------------------------------------------------------------

Result<ColumnPtr> EvalFun1(Fun1 f, const Column& in, QueryContext* ctx) {
  size_t n = in.size();
  switch (f) {
    case Fun1::kNot: {
      auto out = Column::MakeBool(n);
      for (uint8_t b : in.bools()) out->bools().push_back(b ? 0 : 1);
      return out;
    }
    case Fun1::kBoolToItem: {
      auto out = Column::MakeItem(n);
      for (uint8_t b : in.bools()) {
        out->items().push_back(Item::Bool(b != 0));
      }
      return out;
    }
    case Fun1::kItemToBool: {
      auto out = Column::MakeBool(n);
      for (const Item& it : in.items()) {
        PF_ASSIGN_OR_RETURN(bool b, bat::ItemToBool(it, *ctx->pool()));
        out->bools().push_back(b ? 1 : 0);
      }
      return out;
    }
    case Fun1::kIntToItem: {
      auto out = Column::MakeItem(n);
      for (int64_t v : in.ints()) out->items().push_back(Item::Int(v));
      return out;
    }
    case Fun1::kData: {
      auto out = Column::MakeItem(n);
      for (const Item& it : in.items()) {
        PF_ASSIGN_OR_RETURN(Item a, AtomizeItem(ctx, it));
        out->items().push_back(a);
      }
      return out;
    }
    case Fun1::kStringFn: {
      auto out = Column::MakeItem(n);
      for (const Item& it : in.items()) {
        PF_ASSIGN_OR_RETURN(StrId s, ItemAsString(ctx, it));
        out->items().push_back(Item::Str(s));
      }
      return out;
    }
    case Fun1::kNumberFn: {
      auto out = Column::MakeItem(n);
      for (const Item& it : in.items()) {
        Item a = it;
        if (it.IsNode()) {
          PF_ASSIGN_OR_RETURN(a, AtomizeItem(ctx, it));
        }
        auto d = bat::ItemToDouble(a, *ctx->pool());
        out->items().push_back(Item::Dbl(
            d.ok() ? *d : std::numeric_limits<double>::quiet_NaN()));
      }
      return out;
    }
    case Fun1::kNeg: {
      auto out = Column::MakeItem(n);
      for (const Item& it : in.items()) {
        PF_ASSIGN_OR_RETURN(Item a, AtomizeItem(ctx, it));
        if (a.kind == ItemKind::kInt) {
          out->items().push_back(Item::Int(-a.AsInt()));
        } else {
          PF_ASSIGN_OR_RETURN(double d, bat::ItemToDouble(a, *ctx->pool()));
          out->items().push_back(Item::Dbl(-d));
        }
      }
      return out;
    }
    case Fun1::kNameFn: {
      auto out = Column::MakeItem(n);
      const StrId no_name = ctx->pool()->Intern("");
      for (const Item& it : in.items()) {
        if (!it.IsNode()) {
          return Status::TypeError("fn:name on a non-node");
        }
        const xml::Document& d = ctx->doc(it.NodeFrag());
        xml::Pre v = it.NodePre();
        xml::NodeKind k = d.kind(v);
        StrId s = (k == xml::NodeKind::kElem || k == xml::NodeKind::kAttr ||
                   k == xml::NodeKind::kPi)
                      ? d.prop(v)
                      : no_name;
        out->items().push_back(Item::Str(s));
      }
      return out;
    }
    case Fun1::kStrLen: {
      auto out = Column::MakeItem(n);
      for (const Item& it : in.items()) {
        PF_ASSIGN_OR_RETURN(StrId s, ItemAsString(ctx, it));
        out->items().push_back(Item::Int(
            static_cast<int64_t>(ctx->pool()->Get(s).size())));
      }
      return out;
    }
    case Fun1::kRootNode: {
      // The document node of the item's tree: a constructed forest
      // holds one tree per constructed node.
      auto out = Column::MakeItem(n);
      for (const Item& it : in.items()) {
        if (!it.IsNode()) {
          return Status::TypeError("fn:root on a non-node");
        }
        const uint32_t frag = it.NodeFrag();
        out->items().push_back(
            Item::Node(frag, ctx->doc(frag).TreeRoot(it.NodePre())));
      }
      return out;
    }
    case Fun1::kIsElement:
    case Fun1::kIsAttribute:
    case Fun1::kIsText:
    case Fun1::kIsNode:
    case Fun1::kIsInt:
    case Fun1::kIsDouble:
    case Fun1::kIsString:
    case Fun1::kIsBool: {
      auto out = Column::MakeBool(n);
      for (const Item& it : in.items()) {
        bool b = false;
        switch (f) {
          case Fun1::kIsNode:
            b = it.IsNode();
            break;
          case Fun1::kIsAttribute:
            b = it.kind == ItemKind::kAttr;
            break;
          case Fun1::kIsElement:
            b = it.kind == ItemKind::kNode &&
                ctx->doc(it.NodeFrag()).kind(it.NodePre()) ==
                    xml::NodeKind::kElem;
            break;
          case Fun1::kIsText:
            b = it.kind == ItemKind::kNode &&
                ctx->doc(it.NodeFrag()).kind(it.NodePre()) ==
                    xml::NodeKind::kText;
            break;
          case Fun1::kIsInt:
            b = it.kind == ItemKind::kInt;
            break;
          case Fun1::kIsDouble:
            b = it.kind == ItemKind::kDbl;
            break;
          case Fun1::kIsString:
            b = it.IsStringLike();
            break;
          case Fun1::kIsBool:
            b = it.kind == ItemKind::kBool;
            break;
          default:
            break;
        }
        out->bools().push_back(b ? 1 : 0);
      }
      return out;
    }
  }
  return Status::Internal("unhandled Fun1");
}

// --- Fun2 ----------------------------------------------------------------

Result<ColumnPtr> EvalFun2(Fun2 f, const Column& a, const Column& b,
                           QueryContext* ctx) {
  size_t n = a.size();
  switch (f) {
    case Fun2::kAnd:
    case Fun2::kOr: {
      auto out = Column::MakeBool(n);
      for (size_t i = 0; i < n; ++i) {
        bool x = a.bools()[i], y = b.bools()[i];
        out->bools().push_back((f == Fun2::kAnd ? (x && y) : (x || y)) ? 1
                                                                       : 0);
      }
      return out;
    }
    case Fun2::kAdd:
    case Fun2::kSub:
    case Fun2::kMul:
    case Fun2::kDiv:
    case Fun2::kIdiv:
    case Fun2::kMod: {
      auto out = Column::MakeItem(n);
      for (size_t i = 0; i < n; ++i) {
        PF_ASSIGN_OR_RETURN(Item r,
                            ArithItem(f, a.items()[i], b.items()[i], ctx));
        out->items().push_back(r);
      }
      return out;
    }
    case Fun2::kCmpEq:
    case Fun2::kCmpNe:
    case Fun2::kCmpLt:
    case Fun2::kCmpLe:
    case Fun2::kCmpGt:
    case Fun2::kCmpGe: {
      auto out = Column::MakeBool(n);
      for (size_t i = 0; i < n; ++i) {
        PF_ASSIGN_OR_RETURN(int c,
                            CompareItems(a.items()[i], b.items()[i], ctx));
        bool r = false;
        switch (f) {
          case Fun2::kCmpEq:
            r = c == 0;
            break;
          case Fun2::kCmpNe:
            r = c != 0;
            break;
          case Fun2::kCmpLt:
            r = c < 0;
            break;
          case Fun2::kCmpLe:
            r = c <= 0;
            break;
          case Fun2::kCmpGt:
            r = c > 0;
            break;
          default:
            r = c >= 0;
            break;
        }
        out->bools().push_back(r ? 1 : 0);
      }
      return out;
    }
    case Fun2::kIs:
    case Fun2::kBefore:
    case Fun2::kAfter: {
      auto out = Column::MakeBool(n);
      for (size_t i = 0; i < n; ++i) {
        const Item& x = a.items()[i];
        const Item& y = b.items()[i];
        if (!x.IsNode() || !y.IsNode()) {
          return Status::TypeError("node comparison on non-nodes");
        }
        bool r;
        if (f == Fun2::kIs) {
          r = x == y;
        } else if (f == Fun2::kBefore) {
          r = x.raw < y.raw;
        } else {
          r = x.raw > y.raw;
        }
        out->bools().push_back(r ? 1 : 0);
      }
      return out;
    }
    case Fun2::kContains:
    case Fun2::kStartsWith: {
      auto out = Column::MakeBool(n);
      for (size_t i = 0; i < n; ++i) {
        PF_ASSIGN_OR_RETURN(StrId xs, ItemAsString(ctx, a.items()[i]));
        PF_ASSIGN_OR_RETURN(StrId ys, ItemAsString(ctx, b.items()[i]));
        std::string_view x = ctx->pool()->Get(xs);
        std::string_view y = ctx->pool()->Get(ys);
        bool r = f == Fun2::kContains
                     ? x.find(y) != std::string_view::npos
                     : x.substr(0, y.size()) == y;
        out->bools().push_back(r ? 1 : 0);
      }
      return out;
    }
    case Fun2::kConcat: {
      auto out = Column::MakeItem(n);
      for (size_t i = 0; i < n; ++i) {
        PF_ASSIGN_OR_RETURN(StrId xs, ItemAsString(ctx, a.items()[i]));
        PF_ASSIGN_OR_RETURN(StrId ys, ItemAsString(ctx, b.items()[i]));
        std::string joined(ctx->pool()->Get(xs));
        joined += ctx->pool()->Get(ys);
        out->items().push_back(Item::Str(ctx->pool()->Intern(joined)));
      }
      return out;
    }
    case Fun2::kSubstrFrom:
    case Fun2::kSubstrLen: {
      // fn:substring semantics with 1-based, rounded positions
      // (byte-oriented: this engine treats characters as bytes).
      auto out = Column::MakeItem(n);
      for (size_t i = 0; i < n; ++i) {
        PF_ASSIGN_OR_RETURN(StrId xs, ItemAsString(ctx, a.items()[i]));
        PF_ASSIGN_OR_RETURN(Item num, AtomizeItem(ctx, b.items()[i]));
        PF_ASSIGN_OR_RETURN(double d, bat::ItemToDouble(num, *ctx->pool()));
        std::string_view s = ctx->pool()->Get(xs);
        std::string r;
        if (f == Fun2::kSubstrFrom) {
          int64_t start = static_cast<int64_t>(std::llround(d));
          if (start < 1) start = 1;
          if (static_cast<size_t>(start) <= s.size()) {
            r = std::string(s.substr(static_cast<size_t>(start - 1)));
          }
        } else {
          int64_t len = static_cast<int64_t>(std::llround(d));
          if (len > 0) {
            r = std::string(s.substr(0, static_cast<size_t>(len)));
          }
        }
        out->items().push_back(Item::Str(ctx->pool()->Intern(r)));
      }
      return out;
    }
  }
  return Status::Internal("unhandled Fun2");
}

// --- constant cells -------------------------------------------------------

// A cell of element type T (a Column payload type) from an Item of the
// matching kind.
template <typename T>
T CellOf(const Item& v) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return v.AsInt();
  } else if constexpr (std::is_same_v<T, double>) {
    return v.AsDbl();
  } else if constexpr (std::is_same_v<T, StrId>) {
    return v.AsStr();
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return v.AsBool() ? 1 : 0;
  } else {
    return v;
  }
}

template <typename Vec>
using ElemOf = typename std::decay_t<Vec>::value_type;

ColumnPtr ConstColumn(ColType t, const Item& v, size_t n) {
  auto col = std::make_shared<Column>(t);
  Column::Visit(
      t, [&](auto& dst) { dst.assign(n, CellOf<ElemOf<decltype(dst)>>(v)); },
      *col);
  return col;
}

// --- per-op evaluation ----------------------------------------------------

class Exec {
 public:
  explicit Exec(QueryContext* ctx) : ctx_(ctx) {}

  Result<Table> Run(const alg::OpPtr& root) {
    // Profiling is a single predictable branch per operator when off:
    // no timer calls, no record writes, no allocation on the hot path.
    bool prof = ctx_->profile;
    QueryCache* cache = ctx_->result_cache;
    // Per-node state lives in vectors indexed by the plan's post-order
    // numbering (the root is numbered last).
    plan_ = alg::NumberPlan(root);
    const size_t n = plan_.nodes.size();
    memo_.resize(n);
    if (prof) recs_.resize(n);
    // Evaluation order: iterative post-order over the DAG (children
    // before parents, each node once), pruned at subplan-cache hits —
    // a served subtree is never descended into, so its operators cost
    // nothing. Nodes it shares with the rest of the plan are still
    // reached through their other parents. Misses are remembered and
    // published after evaluation, outside any timed region.
    std::vector<uint32_t> order;  // node numbers
    std::vector<const alg::OpPtr*> publish;
    {
      struct Frame {
        const alg::OpPtr* op;
        uint32_t num;
        size_t child = 0;
      };
      std::vector<bool> visited(n, false);
      std::vector<Frame> stack;
      auto enter = [&](const alg::OpPtr& p) {
        uint32_t i = static_cast<uint32_t>(plan_.IndexOf(p.get()));
        if (visited[i]) return;
        visited[i] = true;
        if (cache && p->cache_cand) {
          int64_t t0 = prof ? ProfileNowNs() : 0;
          Table t;
          if (cache->LookupSubplan(*p, &t)) {
            ctx_->subplan_cache_hits++;
            if (prof) {
              OpProfileRec& rec = recs_[i];
              rec.cached = true;
              rec.wall_ns = ProfileNowNs() - t0;
              rec.out_rows = static_cast<int64_t>(t.rows());
              rec.out_bytes = static_cast<int64_t>(t.ByteSize());
            }
            memo_[i] = std::move(t);
            return;  // subtree served; no descent
          }
          ctx_->subplan_cache_misses++;
          publish.push_back(&p);
        }
        stack.push_back(Frame{&p, i});
      };
      enter(root);
      while (!stack.empty()) {
        Frame f = stack.back();
        if (f.child < (*f.op)->children.size()) {
          stack.back().child++;
          enter((*f.op)->children[f.child]);  // may grow the stack
        } else {
          order.push_back(f.num);
          stack.pop_back();
        }
      }
    }
    // Cost-based admission currency: the measured wall time of
    // evaluating each publish candidate's subtree. Those operators are
    // timed even when profiling is off — candidate nodes only, so a
    // query with no publishable candidates still runs a timer-free hot
    // path.
    std::vector<bool> costed(publish.empty() ? 0 : n, false);
    for (const alg::OpPtr* opp : publish) {
      std::vector<const Op*> dfs = {opp->get()};
      while (!dfs.empty()) {
        const Op* op = dfs.back();
        dfs.pop_back();
        size_t i = plan_.IndexOf(op);
        if (costed[i]) continue;
        costed[i] = true;
        for (const auto& c : op->children) dfs.push_back(c.get());
      }
    }
    std::vector<int64_t> eval_ns(costed.size(), 0);
    // Each intermediate is released after its last consumer has run:
    // `uses` counts a node's parents among the evaluated nodes (the
    // interior of a subtree served by a cache hit is never reached
    // through it). The root has no consumer, and each publish
    // candidate holds one more use, so both stay until InsertSubplan
    // has read them.
    std::vector<uint32_t> uses(n, 0);
    for (uint32_t i : order) {
      for (const auto& c : plan_.nodes[i]->children) {
        uses[plan_.IndexOf(c.get())]++;
      }
    }
    for (const alg::OpPtr* opp : publish) uses[plan_.IndexOf(opp->get())]++;
    for (uint32_t i : order) {
      Op* op = plan_.nodes[i];
      // Checkpoint: probe first (it may fire the token), then the
      // cancellation check.
      if (ctx_->op_probe) ctx_->op_probe(*op, ctx_->cancel_token);
      PF_RETURN_NOT_OK(TokenCheck());
      bool costed_op = !costed.empty() && costed[i];
      bool timed = prof || costed_op;
      int64_t t0 = timed ? ProfileNowNs() : 0;
      PF_ASSIGN_OR_RETURN(Table t, EvalOne(*op));
      int64_t wall = timed ? ProfileNowNs() - t0 : 0;
      if (costed_op) eval_ns[i] = wall;
      if (prof) {
        OpProfileRec& rec = recs_[i];
        rec.wall_ns = wall;
        rec.out_rows = static_cast<int64_t>(t.rows());
        rec.out_bytes = static_cast<int64_t>(t.ByteSize());
        rec.morsels = MorselCount(*op, t);
      }
      PF_RETURN_NOT_OK(Charge(static_cast<int64_t>(t.ByteSize())));
      memo_[i] = std::move(t);
      for (const auto& c : op->children) {
        const size_t k = plan_.IndexOf(c.get());
        if (--uses[k] == 0) memo_[k] = Table{};
      }
    }
    if (cache) {
      // Nodes already summed for candidate k carry seen == k + 1.
      std::vector<uint32_t> seen(publish.empty() ? 0 : n, 0);
      for (size_t k = 0; k < publish.size(); ++k) {
        const alg::OpPtr* opp = publish[k];
        const uint32_t stamp = static_cast<uint32_t>(k + 1);
        // The candidate's cost: summed eval wall time over its subtree.
        // Subtrees pruned by nested cache hits carry 0 (a conservative
        // under-count — cheaper than re-evaluating).
        int64_t cost_ns = 0;
        std::vector<const Op*> dfs = {opp->get()};
        while (!dfs.empty()) {
          const Op* op = dfs.back();
          dfs.pop_back();
          size_t i = plan_.IndexOf(op);
          if (seen[i] == stamp) continue;
          seen[i] = stamp;
          cost_ns += eval_ns[i];
          for (const auto& c : op->children) dfs.push_back(c.get());
        }
        if (cache->InsertSubplan(*opp, memo_[plan_.IndexOf(opp->get())],
                                 cost_ns, ctx_->cache_generation)) {
          ctx_->subplan_cache_admitted++;
        } else {
          ctx_->subplan_cache_rejects++;
        }
      }
    }
    if (prof) {
      ctx_->profile_result = BuildProfileTree(plan_, recs_, *ctx_->pool());
    }
    return std::move(memo_.back());
  }

 private:
  const Table& Child(const Op& op, size_t i) {
    return memo_[plan_.IndexOf(op.children[i].get())];
  }

  /// Cooperative cancellation checkpoint: OK while the query may keep
  /// running. Called between operators, after a Step's join (whose
  /// chunks poll the token too) and per summary-answered path-scan
  /// run, so long scans abort mid-operator too.
  Status TokenCheck() {
    if (ctx_->cancel_token != nullptr) {
      PF_RETURN_NOT_OK(ctx_->cancel_token->Check());
    }
    return Status::OK();
  }

  /// Morsel decomposition of an operator: chunk count of its major
  /// input (largest child, or its own output for leaves) under the
  /// fixed kernel grain.
  int64_t MorselCount(const Op& op, const Table& out) const {
    size_t basis = out.rows();
    for (const auto& c : op.children) {
      basis = std::max(basis, memo_[plan_.IndexOf(c.get())].rows());
    }
    return static_cast<int64_t>(ThreadPool::NumChunks(basis, morsel()));
  }

  Result<Table> EvalOne(const Op& op) {
    switch (op.kind) {
      case OpKind::kLitTable: {
        Table t;
        for (size_t c = 0; c < op.names.size(); ++c) {
          auto col = std::make_shared<Column>(op.types[c]);
          Column::Visit(
              op.types[c],
              [&](auto& dst) {
                for (const auto& row : op.rows) {
                  dst.push_back(CellOf<ElemOf<decltype(dst)>>(row[c]));
                }
              },
              *col);
          t.AddCol(op.names[c], std::move(col));
        }
        return t;
      }
      case OpKind::kProject: {
        const Table& in = Child(op, 0);
        Table t;
        for (const auto& [nw, old] : op.proj) {
          PF_ASSIGN_OR_RETURN(ColumnPtr c, in.GetCol(old));
          t.AddCol(nw, c);
        }
        return t;
      }
      case OpKind::kAttach: {
        Table t = Child(op, 0);
        t.AddCol(op.out, ConstColumn(op.types[0], op.attach_val, t.rows()));
        return t;
      }
      case OpKind::kSelect: {
        const Table& in = Child(op, 0);
        PF_ASSIGN_OR_RETURN(ColumnPtr pred, in.GetCol(op.col));
        return bat::FilterGather(in, *pred, tp(), kt());
      }
      case OpKind::kDisjointUnion:
        return bat::UnionAll(Child(op, 0), Child(op, 1));
      case OpKind::kDifference: {
        PF_ASSIGN_OR_RETURN(IdxVec idx,
                            bat::DifferenceIndices(Child(op, 0), Child(op, 1),
                                                   op.keys, tp()));
        return bat::GatherTable(Child(op, 0), idx, tp());
      }
      case OpKind::kDistinct: {
        PF_ASSIGN_OR_RETURN(
            IdxVec idx, bat::DistinctIndices(Child(op, 0), op.keys, tp()));
        return bat::GatherTable(Child(op, 0), idx, tp());
      }
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin: {
        const Table& l = Child(op, 0);
        const Table& r = Child(op, 1);
        PF_ASSIGN_OR_RETURN(ColumnPtr lk, l.GetCol(op.col));
        PF_ASSIGN_OR_RETURN(ColumnPtr rk, r.GetCol(op.col2));
        bat::JoinPairChunks pc;
        PF_RETURN_NOT_OK(
            op.kind == OpKind::kEquiJoin
                ? bat::HashJoinPairsChunked(*lk, *rk, *ctx_->pool(), &pc,
                                            tp(), kt())
                : bat::ThetaJoinPairsChunked(*lk, *rk, op.cmp,
                                             *ctx_->pool(), &pc, tp()));
        return bat::GatherPairs(l, r, pc, tp());
      }
      case OpKind::kCross: {
        // Every (left, right) row pair, left-major, in chunks of about a
        // morsel of pairs (a function of the input sizes only).
        const Table& l = Child(op, 0);
        const Table& r = Child(op, 1);
        const size_t grain =
            std::max<size_t>(1, morsel() / std::max<size_t>(1, r.rows()));
        bat::JoinPairChunks pc;
        pc.li.resize(ThreadPool::NumChunks(l.rows(), grain));
        pc.ri.resize(pc.li.size());
        ParallelFor(tp(), l.rows(), grain, [&](size_t c, size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            for (size_t j = 0; j < r.rows(); ++j) {
              pc.li[c].push_back(static_cast<RowIdx>(i));
              pc.ri[c].push_back(static_cast<RowIdx>(j));
            }
          }
        });
        return bat::GatherPairs(l, r, pc, tp());
      }
      case OpKind::kRowNum: {
        const Table& in = Child(op, 0);
        PF_ASSIGN_OR_RETURN(
            ColumnPtr col, bat::Mark(in, op.part, op.order, *ctx_->pool(),
                                     op.order_desc, tp(), kt()));
        Table t = in;
        t.AddCol(op.out, std::move(col));
        return t;
      }
      case OpKind::kStep:
        return EvalStep(op);
      case OpKind::kPathScan:
        return EvalPathScan(op);
      case OpKind::kDocRoot: {
        const Table& in = Child(op, 0);
        PF_ASSIGN_OR_RETURN(ColumnPtr iter, in.GetCol(bat::kIter));
        PF_ASSIGN_OR_RETURN(ColumnPtr item, in.GetCol(bat::kItem));
        auto out_iter = Column::MakeInt(in.rows());
        auto out_item = Column::MakeItem(in.rows());
        for (size_t i = 0; i < in.rows(); ++i) {
          const Item& it = item->items()[i];
          if (!it.IsStringLike()) {
            return Status::TypeError("fn:doc expects a string");
          }
          PF_ASSIGN_OR_RETURN(
              xml::FragId frag,
              ctx_->db()->FindDocument(
                  std::string(ctx_->pool()->Get(it.AsStr()))));
          out_iter->ints().push_back(iter->ints()[i]);
          out_item->items().push_back(Item::Node(frag, 0));
        }
        Table t;
        t.AddCol(bat::kIter, std::move(out_iter));
        t.AddCol(bat::kItem, std::move(out_item));
        return t;
      }
      case OpKind::kElemConstr:
        return EvalElem(op);
      case OpKind::kTextConstr:
        return EvalTextOrAttr(op, /*is_attr=*/false);
      case OpKind::kAttrConstr:
        return EvalTextOrAttr(op, /*is_attr=*/true);
      case OpKind::kStrJoin:
        return EvalStrJoin(op);
      case OpKind::kFun1: {
        const Table& in = Child(op, 0);
        PF_ASSIGN_OR_RETURN(ColumnPtr c, in.GetCol(op.col));
        PF_ASSIGN_OR_RETURN(ColumnPtr out, EvalFun1(op.fun1, *c, ctx_));
        Table t = in;
        t.AddCol(op.out, std::move(out));
        return t;
      }
      case OpKind::kFun2: {
        const Table& in = Child(op, 0);
        PF_ASSIGN_OR_RETURN(ColumnPtr a, in.GetCol(op.col));
        PF_ASSIGN_OR_RETURN(ColumnPtr b, in.GetCol(op.col2));
        PF_ASSIGN_OR_RETURN(ColumnPtr out, EvalFun2(op.fun2, *a, *b, ctx_));
        Table t = in;
        t.AddCol(op.out, std::move(out));
        return t;
      }
      case OpKind::kAggr:
        return bat::GroupAgg(Child(op, 0), op.col, op.col2, op.agg,
                             *ctx_->pool(), op.col, op.out, tp(), kt());
      case OpKind::kSerialize: {
        const Table& in = Child(op, 0);
        PF_ASSIGN_OR_RETURN(
            IdxVec perm, bat::SortPerm(in, {bat::kIter, bat::kPos},
                                       *ctx_->pool(), {}, tp(), kt()));
        return bat::GatherTable(in, perm, tp());
      }
    }
    return Status::Internal("unhandled operator in executor");
  }

  // A Step's context relation: the (iter, item) rows sorted by (iter,
  // item.raw), so by (iter, fragment, pre), with each iteration's
  // repeated nodes dropped. Rows that tie under this order are
  // bit-identical, so any tie order yields the same relation.
  Result<accel::IterNodes> StepContexts(const Table& in) {
    PF_ASSIGN_OR_RETURN(ColumnPtr iter_c, in.GetCol(bat::kIter));
    PF_ASSIGN_OR_RETURN(ColumnPtr item_c, in.GetCol(bat::kItem));
    const auto& iters = iter_c->ints();
    const auto& items = item_c->items();
    const IdxVec perm = bat::StableSortRows(
        in.rows(),
        [&](RowIdx a, RowIdx b) {
          if (iters[a] != iters[b]) return iters[a] < iters[b] ? -1 : 1;
          return (items[a].raw > items[b].raw) -
                 (items[a].raw < items[b].raw);
        },
        tp(), kt());
    accel::IterNodes ctxs;
    ctxs.iter.reserve(perm.size());
    ctxs.node.reserve(perm.size());
    for (RowIdx r : perm) {
      const Item& it = items[r];
      if (!it.IsNode()) {
        return Status::TypeError("path step applied to an atomic value");
      }
      if (!ctxs.empty() && ctxs.iter.back() == iters[r] &&
          ctxs.node.back() == it.raw) {
        continue;
      }
      ctxs.Add(iters[r], it.raw);
    }
    return ctxs;
  }

  // The staircase join's view of the query's fragments.
  accel::FragmentFn Fragments() const {
    return [ctx = ctx_](uint32_t f) {
      const xml::Document& d = ctx->doc(f);
      return accel::Fragment{&d, ctx->path_summary ? d.summary() : nullptr};
    };
  }

  // Cancellation inside the step kernel: polled once per chunk (which
  // also fires an expired deadline). A fired token skips the remaining
  // chunks; the caller's TokenCheck turns it into the error.
  accel::StopFn StopPoll() const {
    return [token = ctx_->cancel_token] {
      return token != nullptr && !token->Check().ok();
    };
  }

  // The (iter, item) table of a Step's result relation.
  Table StepTable(accel::IterNodes rows) {
    auto out_iter = Column::MakeInt();
    auto out_item = Column::MakeItem(rows.size());
    std::vector<Item>& items = out_item->items();
    const xml::Document* doc = nullptr;
    uint32_t frag = 0;
    for (accel::NodeRef r : rows.node) {
      if (doc == nullptr || accel::RefFrag(r) != frag) {
        frag = accel::RefFrag(r);
        doc = &ctx_->doc(frag);
      }
      items.push_back(Item{doc->IsAttr(accel::RefPre(r)) ? ItemKind::kAttr
                                                         : ItemKind::kNode,
                           r});
    }
    out_iter->ints() = std::move(rows.iter);
    Table t;
    t.AddCol(bat::kIter, std::move(out_iter));
    t.AddCol(bat::kItem, std::move(out_item));
    return t;
  }

  Result<Table> EvalStep(const Op& op) {
    PF_ASSIGN_OR_RETURN(accel::IterNodes ctxs, StepContexts(Child(op, 0)));
    accel::IterNodes res;
    if (ctx_->use_staircase) {
      accel::StaircaseJoin(ctxs, Fragments(), op.axis, op.test, &res,
                           &ctx_->scj_stats, tp(), StopPoll());
    } else {
      accel::NaiveJoin(ctxs, Fragments(), op.axis, op.test, &res);
    }
    PF_RETURN_NOT_OK(TokenCheck());
    return StepTable(std::move(res));
  }

  static xml::PathSummary::StepAxis ToSumAxis(accel::Axis a) {
    switch (a) {
      case accel::Axis::kDescendant:
        return xml::PathSummary::StepAxis::kDescendant;
      case accel::Axis::kDescendantOrSelf:
        return xml::PathSummary::StepAxis::kDescendantOrSelf;
      case accel::Axis::kSelf:
        return xml::PathSummary::StepAxis::kSelf;
      case accel::Axis::kAttribute:
        return xml::PathSummary::StepAxis::kAttribute;
      default:
        return xml::PathSummary::StepAxis::kChild;
    }
  }

  static xml::PathSummary::StepTest ToSumTest(accel::NodeTest::Kind k) {
    switch (k) {
      case accel::NodeTest::Kind::kName:
        return xml::PathSummary::StepTest::kName;
      case accel::NodeTest::Kind::kElement:
        return xml::PathSummary::StepTest::kElement;
      default:
        return xml::PathSummary::StepTest::kAnyNode;
    }
  }

  /// Evaluate a collapsed structural chain (opt/path_rewrite.h). The
  /// child is the chain's fn:doc access, so each input row is a
  /// document root; when every document carries a path summary the
  /// whole chain is resolved on summary paths and each root's result
  /// is read from the tag partitions without touching the encoding
  /// (StaircaseStats::structural_answers). Otherwise — fragments
  /// without a summary, or unexpected non-root contexts — one
  /// staircase join per chain step: same results, same order.
  Result<Table> EvalPathScan(const Op& op) {
    PF_ASSIGN_OR_RETURN(accel::IterNodes cur, StepContexts(Child(op, 0)));
    bool summarized = ctx_->path_summary;
    for (size_t k = 0; summarized && k < cur.size(); ++k) {
      summarized = accel::RefPre(cur.node[k]) == 0 &&
                   ctx_->doc(accel::RefFrag(cur.node[k])).summary() != nullptr;
    }
    if (summarized) {
      // One context per (iter, fragment): the repeated roots of an
      // iteration were dropped.
      accel::IterNodes res;
      std::vector<int32_t> paths, next;
      std::vector<xml::Pre> pres;
      for (size_t k = 0; k < cur.size(); ++k) {
        PF_RETURN_NOT_OK(TokenCheck());
        const uint32_t frag = accel::RefFrag(cur.node[k]);
        const xml::Document& doc = ctx_->doc(frag);
        const xml::PathSummary* sum = doc.summary();
        paths = {0};
        for (const alg::PathStep& s : op.path) {
          sum->ResolveStep(ToSumAxis(s.axis), ToSumTest(s.test.kind),
                           s.test.name, paths, &next);
          paths.swap(next);
          if (paths.empty()) break;
        }
        pres.clear();
        sum->GatherPartitions(paths, 0, doc.num_nodes() - 1, &pres);
        res.iter.resize(res.size() + pres.size(), cur.iter[k]);
        for (xml::Pre p : pres) res.node.push_back(accel::MakeRef(frag, p));
        ctx_->scj_stats.structural_answers += 1;
        ctx_->scj_stats.contexts_in += 1;
        ctx_->scj_stats.results += pres.size();
      }
      return StepTable(std::move(res));
    }
    for (const alg::PathStep& s : op.path) {
      if (cur.empty()) break;
      accel::IterNodes nxt;
      accel::StaircaseJoin(cur, Fragments(), s.axis, s.test, &nxt,
                           &ctx_->scj_stats, tp(), StopPoll());
      PF_RETURN_NOT_OK(TokenCheck());
      cur = std::move(nxt);
    }
    return StepTable(std::move(cur));
  }

  // The items of an (iter, pos, item) table sorted by (iter, pos), and
  // its iters' runs in ascending iter order: run g is the iter iters[g]
  // with the items items[off[g], off[g + 1]).
  struct ContentGroups {
    std::vector<Item> items;
    std::vector<int64_t> iters;
    std::vector<size_t> off;  // iters.size() + 1 offsets

    size_t size() const { return iters.size(); }
    std::span<const Item> operator[](size_t g) const {
      return std::span<const Item>(items).subspan(off[g],
                                                  off[g + 1] - off[g]);
    }
  };

  Result<ContentGroups> GroupContent(const Table& in) {
    PF_ASSIGN_OR_RETURN(IdxVec perm,
                        bat::SortPerm(in, {bat::kIter, bat::kPos},
                                      *ctx_->pool(), {}, tp(), kt()));
    PF_ASSIGN_OR_RETURN(ColumnPtr iter_c, in.GetCol(bat::kIter));
    PF_ASSIGN_OR_RETURN(ColumnPtr item_c, in.GetCol(bat::kItem));
    const auto& iters = iter_c->ints();
    const auto& items = item_c->items();
    ContentGroups g;
    g.items.reserve(perm.size());
    for (size_t k = 0; k < perm.size(); ++k) {
      const int64_t it = iters[perm[k]];
      if (k == 0 || g.iters.back() != it) {
        g.iters.push_back(it);
        g.off.push_back(k);
      }
      g.items.push_back(items[perm[k]]);
    }
    g.off.push_back(perm.size());
    return g;
  }

  // The string value of a content group, as a text or attribute
  // constructor takes it: one item's string as is, several joined with
  // single spaces.
  Result<StrId> ContentString(std::span<const Item> items) {
    if (items.size() == 1) return ItemAsString(ctx_, items[0]);
    std::string joined;
    for (size_t i = 0; i < items.size(); ++i) {
      PF_ASSIGN_OR_RETURN(StrId s, ItemAsString(ctx_, items[i]));
      if (i) joined += ' ';
      joined += ctx_->pool()->Get(s);
    }
    return ctx_->pool()->Intern(joined);
  }

  Result<Table> EvalElem(const Op& op) {
    const Table& names = Child(op, 0);
    PF_ASSIGN_OR_RETURN(ContentGroups content, GroupContent(Child(op, 1)));

    // One element per iter of the name relation (first name row wins),
    // in iter order; the content groups are walked alongside.
    PF_ASSIGN_OR_RETURN(
        IdxVec perm,
        bat::SortPerm(names, {bat::kIter}, *ctx_->pool(), {}, tp(), kt()));
    PF_ASSIGN_OR_RETURN(ColumnPtr iter_c, names.GetCol(bat::kIter));
    PF_ASSIGN_OR_RETURN(ColumnPtr item_c, names.GetCol(bat::kItem));

    auto out_iter = Column::MakeInt();
    auto out_item = Column::MakeItem();
    ForestBuilder forest(ctx_);
    int64_t charged = 0;
    size_t cg = 0;
    for (size_t k = 0; k < perm.size(); ++k) {
      const int64_t iter = iter_c->ints()[perm[k]];
      if (k > 0 && iter == iter_c->ints()[perm[k - 1]]) continue;
      PF_ASSIGN_OR_RETURN(StrId name,
                          ItemAsString(ctx_, item_c->items()[perm[k]]));
      while (cg < content.size() && content.iters[cg] < iter) ++cg;
      std::span<const Item> items;
      if (cg < content.size() && content.iters[cg] == iter) {
        items = content[cg];
      }
      PF_ASSIGN_OR_RETURN(Item node, forest.Element(name, items));
      PF_RETURN_NOT_OK(ChargeTrees(forest, &charged));
      out_iter->ints().push_back(iter);
      out_item->items().push_back(node);
    }
    forest.Finish();
    Table t;
    t.AddCol(bat::kIter, std::move(out_iter));
    t.AddCol(bat::kItem, std::move(out_item));
    return t;
  }

  Result<Table> EvalStrJoin(const Op& op) {
    PF_ASSIGN_OR_RETURN(ContentGroups groups, GroupContent(Child(op, 0)));
    const Table& seps = Child(op, 1);
    // Separator per iter (singleton; defaults to "" when absent).
    PF_ASSIGN_OR_RETURN(ColumnPtr sep_iter, seps.GetCol(bat::kIter));
    PF_ASSIGN_OR_RETURN(ColumnPtr sep_item, seps.GetCol(bat::kItem));
    std::unordered_map<int64_t, StrId> sep_of;
    for (size_t i = 0; i < seps.rows(); ++i) {
      PF_ASSIGN_OR_RETURN(StrId s,
                          ItemAsString(ctx_, sep_item->items()[i]));
      sep_of.emplace(sep_iter->ints()[i], s);
    }
    auto out_iter = Column::MakeInt(groups.size());
    auto out_item = Column::MakeItem(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      const int64_t iter = groups.iters[g];
      auto it = sep_of.find(iter);
      std::string sep(it == sep_of.end()
                          ? ""
                          : std::string(ctx_->pool()->Get(it->second)));
      std::string joined;
      std::span<const Item> items = groups[g];
      for (size_t i = 0; i < items.size(); ++i) {
        PF_ASSIGN_OR_RETURN(StrId s, ItemAsString(ctx_, items[i]));
        if (i) joined += sep;
        joined += ctx_->pool()->Get(s);
      }
      out_iter->ints().push_back(iter);
      out_item->items().push_back(
          Item::Str(ctx_->pool()->Intern(joined)));
    }
    Table t;
    t.AddCol(bat::kIter, std::move(out_iter));
    t.AddCol(bat::kItem, std::move(out_item));
    return t;
  }

  Result<Table> EvalTextOrAttr(const Op& op, bool is_attr) {
    PF_ASSIGN_OR_RETURN(ContentGroups groups, GroupContent(Child(op, 0)));
    auto out_iter = Column::MakeInt(groups.size());
    auto out_item = Column::MakeItem(groups.size());
    const StrId name = op.attr_name;
    ForestBuilder forest(ctx_);
    int64_t charged = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
      PF_ASSIGN_OR_RETURN(StrId content, ContentString(groups[g]));
      out_iter->ints().push_back(groups.iters[g]);
      out_item->items().push_back(is_attr ? forest.Attribute(name, content)
                                          : forest.Text(content));
      PF_RETURN_NOT_OK(ChargeTrees(forest, &charged));
    }
    forest.Finish();
    Table t;
    t.AddCol(bat::kIter, std::move(out_iter));
    t.AddCol(bat::kItem, std::move(out_item));
    return t;
  }

  // Adds `bytes` to the query's memory charge; ResourceExhausted once
  // the charge exceeds the budget (when one is set).
  Status Charge(int64_t bytes) {
    if (ctx_->mem_limit_bytes <= 0) return Status::OK();
    mem_charged_ += bytes;
    if (mem_charged_ > ctx_->mem_limit_bytes) {
      return Status::ResourceExhausted(
          "query memory budget exceeded (" + std::to_string(mem_charged_) +
          " > " + std::to_string(ctx_->mem_limit_bytes) +
          " bytes materialized)");
    }
    return Status::OK();
  }

  // Charges the encoding bytes `forest` gained since `*charged` (its
  // size at the last call), so a constructor stops within one tree of
  // the budget.
  Status ChargeTrees(const ForestBuilder& forest, int64_t* charged) {
    const int64_t now = forest.bytes();
    PF_RETURN_NOT_OK(Charge(now - *charged));
    *charged = now;
    return Status::OK();
  }

  ThreadPool* tp() const { return ctx_->thread_pool(); }
  const bat::KernelTuning& kt() const { return ctx_->tuning; }
  size_t morsel() const { return ctx_->tuning.morsel_rows; }

  QueryContext* ctx_;
  alg::PlanNumbering plan_;
  std::vector<Table> memo_;  // by node number; dropped after last use
  std::vector<OpProfileRec> recs_;   // by node number; profiling only
  int64_t mem_charged_ = 0;   // materialized bytes vs ctx mem budget
};

}  // namespace

Result<Table> Execute(const algebra::OpPtr& root, QueryContext* ctx) {
  Exec exec(ctx);
  return exec.Run(root);
}

}  // namespace pathfinder::engine
