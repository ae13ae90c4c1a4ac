#include "opt/join_graph.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/schema.h"
#include "xml/database.h"
#include "xml/document.h"
#include "xml/path_summary.h"

namespace pathfinder::opt {

namespace alg = pathfinder::algebra;
using alg::ColId;
using alg::Op;
using alg::OpKind;
using alg::OpPtr;

namespace {

/// The most nodes on any of `paths` under one parent node: a tag's (or
/// attribute name's) fan-out, since one parent's children of one tag
/// all lie on one path. 0 when the tag does not occur.
uint32_t MaxFanOut(const xml::PathSummary& s,
                   const std::vector<int32_t>* paths) {
  uint32_t m = 0;
  if (paths == nullptr) return m;
  for (int32_t id : *paths) m = std::max<uint32_t>(m, s.path(id).fan_out);
  return m;
}

}  // namespace

algebra::StepUniqueness MakeStepUniqueness(const xml::Database* db) {
  if (db == nullptr) return nullptr;
  return [db](accel::Axis axis, const accel::NodeTest& test) -> bool {
    size_t n = db->num_documents();
    if (n == 0) return false;
    for (size_t i = 0; i < n; ++i) {
      const xml::PathSummary* s =
          db->doc(static_cast<xml::FragId>(i)).summary();
      if (s == nullptr) return false;
      switch (axis) {
        case accel::Axis::kChild:
          if (test.kind == accel::NodeTest::Kind::kName) {
            if (MaxFanOut(*s, s->ElementPathsByTag(test.name)) > 1) {
              return false;
            }
          } else if (test.kind == accel::NodeTest::Kind::kText) {
            if (s->max_text_children() > 1) return false;
          } else {
            return false;
          }
          break;
        case accel::Axis::kAttribute:
          if (test.kind != accel::NodeTest::Kind::kName) return false;
          if (MaxFanOut(*s, s->AttrPathsByName(test.name)) > 1) return false;
          break;
        default:
          return false;
      }
    }
    return true;
  };
}

namespace {

/// Re-stitch the plan, swapping every node of `plan` with a non-null
/// `repl[number]` for that replacement. Replacement subtrees are
/// traversed too: a replaced select's input may hold another replaced
/// select. Iterative, with a flat memo keyed by node address.
OpPtr Stitch(const OpPtr& root, const alg::PlanNumbering& plan,
             const std::vector<OpPtr>& repl) {
  PtrIndex memo;  // original node -> slot in `out`
  std::vector<OpPtr> out;
  auto target_of = [&](const OpPtr& op) -> const OpPtr& {
    uint32_t i = plan.index.Find(op.get());
    return i != PtrIndex::kAbsent && repl[i] ? repl[i] : op;
  };
  auto done = [&](const OpPtr& op) -> const OpPtr* {
    uint32_t i = memo.Find(op.get());
    return i == PtrIndex::kAbsent ? nullptr : &out[i];
  };
  struct Frame {
    const OpPtr* op;
    size_t next_child;
  };
  std::vector<Frame> stack = {{&root, 0}};
  std::vector<OpPtr> kids;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const OpPtr& target = target_of(*f.op);
    if (f.next_child < target->children.size()) {
      const OpPtr& c = target->children[f.next_child++];
      if (done(c) == nullptr) stack.push_back({&c, 0});
      continue;
    }
    kids.clear();
    bool kid_changed = false;
    for (const auto& c : target->children) {
      kids.push_back(*done(c));
      kid_changed |= kids.back().get() != c.get();
    }
    OpPtr result = target;
    if (kid_changed) {
      result = std::make_shared<Op>(*target);
      result->children = kids;
    }
    memo.Insert(f.op->get(), static_cast<uint32_t>(out.size()));
    out.push_back(std::move(result));
    stack.pop_back();
  }
  return out.back();
}

// ---------------------------------------------------------------------
// Pass 1: key-based distinct removal.

OpPtr RemoveKeyDistincts(const OpPtr& root, const alg::KeyAnalysis& ka,
                         JoinOptStats* stats) {
  const alg::PlanNumbering plan = alg::NumberPlan(root);
  const std::vector<const OpPtr*> owner = alg::NodeOwners(plan, root);
  std::vector<OpPtr> rebuilt(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const Op* op = plan.nodes[i];
    if (op->kind == OpKind::kDistinct && !op->keys.empty() &&
        ka.CoversKey(op->children[0].get(), op->keys)) {
      // The input provably carries no duplicate keys-tuples, and
      // DistinctIndices keeps first occurrences, so dropping the
      // operator preserves the exact row sequence.
      rebuilt[i] = rebuilt[plan.IndexOf(op->children[0].get())];
      if (stats != nullptr) stats->key_distincts_removed++;
    } else {
      rebuilt[i] = alg::WithRebuiltChildren(plan, *owner[i], rebuilt);
    }
  }
  return rebuilt.back();
}

// ---------------------------------------------------------------------
// Pass 2: selection pushdown through mapping joins.
//
// The loop-lifting compiler evaluates a comparison by mapping both
// operands into one iteration space (eqjoin iter=iter'), computing the
// predicate as a fun1/fun2/attach/project chain over the join output
// and filtering with a select:
//
//   select b / fun2 b=(item eq r) / eqjoin iter=i / ...
//
// When every join-output column the predicate reads lives on ONE join
// input — columns from the other input are admissible too if they are
// row-independent, i.e. derived purely from attach constants or 1-row
// literal tables (the compiler's shape for comparison with a literal)
// — a copy of the predicate + select is planted below the join on that
// input, followed by a schema-restoring project. The original select
// stays put: it is a no-op on the pre-filtered stream, so downstream
// schemas and plan shape are untouched. Order safety: a pair survives
// the upper select iff its filtered-side row passes the pushed filter,
// and surviving pairs keep their relative order, so results stay
// byte-identical.

/// `col`'s name with `suffix` appended, interned.
ColId Suffixed(ColId col, const char* suffix) {
  return bat::InternCol(std::string(bat::ColName(col)) + suffix);
}

/// A small column -> value map (a join's schema, a chain's columns):
/// a vector searched linearly.
template <typename V>
class ColEnv {
 public:
  const V* Find(ColId c) const {
    for (const auto& [k, v] : entries_) {
      if (k == c) return &v;
    }
    return nullptr;
  }
  void Set(ColId c, V v) {
    for (auto& [k, old] : entries_) {
      if (k == c) {
        old = std::move(v);
        return;
      }
    }
    entries_.emplace_back(c, std::move(v));
  }

 private:
  std::vector<std::pair<ColId, V>> entries_;
};

/// Rebuild column `col` of `op`'s output on top of `base` under the
/// name `out`, provided its value is row-independent (derived only
/// from attach constants / 1-row literal tables through fun chains).
/// Returns nullptr when the column is not provably constant.
OpPtr BuildConstCol(const Op* op, ColId col, OpPtr base, ColId out,
                    const alg::SchemaMap& schemas, int depth) {
  if (depth > 24 || base == nullptr) return nullptr;
  switch (op->kind) {
    case OpKind::kAttach:
      if (op->out == col) {
        return alg::Attach(std::move(base), out, op->types[0],
                           op->attach_val);
      }
      return BuildConstCol(op->children[0].get(), col, std::move(base), out,
                           schemas, depth + 1);
    case OpKind::kLitTable: {
      if (op->rows.size() != 1) return nullptr;
      for (size_t i = 0; i < op->names.size(); ++i) {
        if (op->names[i] == col) {
          return alg::Attach(std::move(base), out, op->types[i],
                             op->rows[0][i]);
        }
      }
      return nullptr;
    }
    case OpKind::kProject:
      for (const auto& [nw, old] : op->proj) {
        if (nw == col) {
          return BuildConstCol(op->children[0].get(), old, std::move(base),
                               out, schemas, depth + 1);
        }
      }
      return nullptr;
    case OpKind::kFun1: {
      if (op->out != col) {
        return BuildConstCol(op->children[0].get(), col, std::move(base),
                             out, schemas, depth + 1);
      }
      const ColId in_col = Suffixed(out, "i");
      OpPtr in = BuildConstCol(op->children[0].get(), op->col,
                               std::move(base), in_col, schemas, depth + 1);
      if (in == nullptr) return nullptr;
      return alg::MapFun1(std::move(in), op->fun1, in_col, out);
    }
    case OpKind::kFun2: {
      if (op->out != col) {
        return BuildConstCol(op->children[0].get(), col, std::move(base),
                             out, schemas, depth + 1);
      }
      const ColId a_col = Suffixed(out, "a"), b_col = Suffixed(out, "b");
      OpPtr a = BuildConstCol(op->children[0].get(), op->col,
                              std::move(base), a_col, schemas, depth + 1);
      OpPtr b = BuildConstCol(op->children[0].get(), op->col2, std::move(a),
                              b_col, schemas, depth + 1);
      if (b == nullptr) return nullptr;
      return alg::MapFun2(std::move(b), op->fun2, a_col, b_col, out);
    }
    case OpKind::kSelect:
    case OpKind::kDistinct:
      // Filtering / deduplication preserves per-row constancy.
      return BuildConstCol(op->children[0].get(), col, std::move(base), out,
                           schemas, depth + 1);
    case OpKind::kRowNum:
      if (op->out == col) return nullptr;  // row-dependent by definition
      return BuildConstCol(op->children[0].get(), col, std::move(base), out,
                           schemas, depth + 1);
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin: {
      for (int s = 0; s < 2; ++s) {
        const alg::Schema* cs = schemas.Find(op->children[s].get());
        if (cs != nullptr && cs->Has(col)) {
          return BuildConstCol(op->children[s].get(), col, std::move(base),
                               out, schemas, depth + 1);
        }
      }
      return nullptr;
    }
    default:
      return nullptr;
  }
}

/// Symbolic form of the predicate chain between a select and the join
/// it filters: a small expression tree whose leaves are join-output
/// columns or attach constants.
struct PredExpr {
  enum class Kind { kJoinCol, kConst, kFun1, kFun2 } kind;
  ColId col = bat::kNoCol;                   // kJoinCol
  bat::ColType ctype = bat::ColType::kItem;  // kConst
  Item cval{ItemKind::kInt, 0};              // kConst
  alg::Fun1 f1 = alg::Fun1::kNot;
  alg::Fun2 f2 = alg::Fun2::kAdd;
  std::shared_ptr<PredExpr> a, b;
};
using PredExprPtr = std::shared_ptr<PredExpr>;

void CollectJoinCols(const PredExprPtr& e, std::vector<ColId>* out) {
  if (e->kind == PredExpr::Kind::kJoinCol) {
    if (std::find(out->begin(), out->end(), e->col) == out->end()) {
      out->push_back(e->col);
    }
  }
  if (e->a) CollectJoinCols(e->a, out);
  if (e->b) CollectJoinCols(e->b, out);
}

/// One select pushed through one join per call site, applied
/// repeatedly until no select moves.
struct SelectPusher {
  JoinOptStats* stats;
  std::set<int> done;  // select ids already handled (clones keep the id)
  // Names the columns of the next pushed select ("jp<n>_..."). Counted
  // per call, not taken from Op::id, so recompiling a query yields the
  // same column names, hence the same structural hashes.
  int next_tag = 0;

  /// Symbolically evaluate the chain (bottom-up) to express the
  /// select's predicate column over the join's output columns.
  PredExprPtr EvalChain(const std::vector<const Op*>& chain,
                        const alg::Schema& join_schema, ColId pred_col) {
    ColEnv<PredExprPtr> env;
    for (const auto& [n, t] : join_schema.cols) {
      auto e = std::make_shared<PredExpr>();
      e->kind = PredExpr::Kind::kJoinCol;
      e->col = n;
      env.Set(n, e);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const Op* c = *it;
      switch (c->kind) {
        case OpKind::kProject: {
          ColEnv<PredExprPtr> next;
          for (const auto& [nw, old] : c->proj) {
            const PredExprPtr* o = env.Find(old);
            if (o == nullptr) return nullptr;
            next.Set(nw, *o);
          }
          env = std::move(next);
          break;
        }
        case OpKind::kAttach: {
          auto e = std::make_shared<PredExpr>();
          e->kind = PredExpr::Kind::kConst;
          e->ctype = c->types[0];
          e->cval = c->attach_val;
          env.Set(c->out, e);
          break;
        }
        case OpKind::kFun1: {
          const PredExprPtr* a = env.Find(c->col);
          if (a == nullptr) return nullptr;
          auto e = std::make_shared<PredExpr>();
          e->kind = PredExpr::Kind::kFun1;
          e->f1 = c->fun1;
          e->a = *a;
          env.Set(c->out, e);
          break;
        }
        case OpKind::kFun2: {
          const PredExprPtr* a = env.Find(c->col);
          const PredExprPtr* b = env.Find(c->col2);
          if (a == nullptr || b == nullptr) return nullptr;
          auto e = std::make_shared<PredExpr>();
          e->kind = PredExpr::Kind::kFun2;
          e->f2 = c->fun2;
          e->a = *a;
          e->b = *b;
          env.Set(c->out, e);
          break;
        }
        default:
          return nullptr;
      }
    }
    const PredExprPtr* p = env.Find(pred_col);
    return p == nullptr ? nullptr : *p;
  }

  /// Emit ops computing `e` on top of `*base`; returns the column
  /// holding the result (kNoCol = failure).
  ColId Emit(const PredExprPtr& e, OpPtr* base, int tag, int* fresh,
             const ColEnv<ColId>& ren) {
    auto name = [&] {
      return bat::InternCol("jp" + std::to_string(tag) + "_" +
                            std::to_string((*fresh)++));
    };
    switch (e->kind) {
      case PredExpr::Kind::kJoinCol: {
        const ColId* r = ren.Find(e->col);
        return r == nullptr ? e->col : *r;
      }
      case PredExpr::Kind::kConst: {
        ColId n = name();
        *base = alg::Attach(std::move(*base), n, e->ctype, e->cval);
        return n;
      }
      case PredExpr::Kind::kFun1: {
        ColId in = Emit(e->a, base, tag, fresh, ren);
        if (in == bat::kNoCol) return bat::kNoCol;
        ColId n = name();
        *base = alg::MapFun1(std::move(*base), e->f1, in, n);
        return n;
      }
      case PredExpr::Kind::kFun2: {
        ColId in1 = Emit(e->a, base, tag, fresh, ren);
        ColId in2 = Emit(e->b, base, tag, fresh, ren);
        if (in1 == bat::kNoCol || in2 == bat::kNoCol) return bat::kNoCol;
        ColId n = name();
        *base = alg::MapFun2(std::move(*base), e->f2, in1, in2, n);
        return n;
      }
    }
    return bat::kNoCol;
  }

  /// Re-emit one original chain op verbatim on top of `base`.
  OpPtr Reemit(const Op* c, OpPtr base) {
    switch (c->kind) {
      case OpKind::kProject:
        return alg::Project(std::move(base), c->proj);
      case OpKind::kAttach:
        return alg::Attach(std::move(base), c->out, c->types[0],
                           c->attach_val);
      case OpKind::kFun1:
        return alg::MapFun1(std::move(base), c->fun1, c->col, c->out);
      case OpKind::kFun2:
        return alg::MapFun2(std::move(base), c->fun2, c->col, c->col2,
                            c->out);
      default:
        return nullptr;
    }
  }

  /// Try to push `sel`'s predicate below `join` onto side `s`. Columns
  /// in `other` come from side 1-s and must be reconstructible as
  /// constants. Returns the replacement for `sel`, or nullptr.
  OpPtr TrySide(const Op* sel, const std::vector<const Op*>& chain,
                const Op* join, int s, const PredExprPtr& pred,
                const std::vector<ColId>& other,
                const alg::SchemaMap& schemas) {
    OpPtr side = join->children[s];
    ColEnv<ColId> ren;
    for (ColId c : other) {
      const ColId fresh_name = bat::InternCol(
          "jp" + std::to_string(next_tag) + "_" + std::string(bat::ColName(c)));
      side = BuildConstCol(join->children[1 - s].get(), c, std::move(side),
                           fresh_name, schemas, 0);
      if (side == nullptr) return nullptr;
      ren.Set(c, fresh_name);
    }
    int fresh = 0;
    ColId pcol = Emit(pred, &side, next_tag, &fresh, ren);
    if (pcol == bat::kNoCol) return nullptr;
    side = alg::Select(std::move(side), pcol);  // fresh id: can cascade
    const alg::Schema& side_schema = schemas.at(join->children[s].get());
    std::vector<std::pair<ColId, ColId>> proj;
    proj.reserve(side_schema.cols.size());
    for (const auto& [n, t] : side_schema.cols) proj.emplace_back(n, n);
    side = alg::Project(std::move(side), std::move(proj));
    OpPtr l = s == 0 ? side : join->children[0];
    OpPtr r = s == 0 ? join->children[1] : side;
    OpPtr cur = join->kind == OpKind::kEquiJoin
                    ? alg::EquiJoin(std::move(l), std::move(r), join->col,
                                    join->col2)
                    : alg::ThetaJoin(std::move(l), std::move(r), join->col,
                                     join->col2, join->cmp);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      cur = Reemit(*it, std::move(cur));
      if (cur == nullptr) return nullptr;
    }
    // The original select stays on top (a no-op on the pre-filtered
    // stream) so the subtree's schema is exactly what it was. Clone it
    // to keep its id: `done` then skips it on later rounds.
    auto top = std::make_shared<Op>(*sel);
    top->children = {std::move(cur)};
    return top;
  }

  /// `schemas` is the caller's memo: each round cuts it to its input
  /// plan and infers only the nodes it lacks.
  Result<OpPtr> Run(OpPtr cur, alg::SchemaMap& schemas) {
    OpPtr pinned;  // the plan the memo was last cut to
    for (int round = 0; round < 4; ++round) {
      alg::PlanNumbering plan = alg::NumberPlan(cur);
      alg::RetainSchemas(plan, &schemas);
      pinned = cur;
      PF_RETURN_NOT_OK(alg::InferSchemas(cur, &schemas).status());
      std::vector<int> consumers(plan.nodes.size(), 0);
      for (const Op* op : plan.nodes) {
        for (const auto& c : op->children) consumers[plan.IndexOf(c.get())]++;
      }
      auto consumers_of = [&](const Op* op) {
        return consumers[plan.IndexOf(op)];
      };
      std::vector<OpPtr> repl(plan.nodes.size());
      bool replaced = false;
      for (Op* op : plan.nodes) {
        if (op->kind != OpKind::kSelect || done.count(op->id) != 0) continue;
        // Walk the predicate-computing chain down to a join.
        std::vector<const Op*> chain;
        const Op* d = op->children[0].get();
        while ((d->kind == OpKind::kFun1 || d->kind == OpKind::kFun2 ||
                d->kind == OpKind::kAttach ||
                d->kind == OpKind::kProject) &&
               consumers_of(d) == 1 && chain.size() < 8) {
          chain.push_back(d);
          d = d->children[0].get();
        }
        if (chain.empty()) continue;
        if ((d->kind != OpKind::kEquiJoin &&
             d->kind != OpKind::kThetaJoin) ||
            consumers_of(d) != 1) {
          continue;
        }
        PredExprPtr pred = EvalChain(chain, schemas.at(d), op->col);
        if (pred == nullptr) continue;
        std::vector<ColId> needed;
        CollectJoinCols(pred, &needed);
        if (needed.empty()) continue;  // constant predicate: leave alone
        std::vector<ColId> froml, fromr;
        bool known = true;
        for (ColId n : needed) {
          if (schemas.at(d->children[0].get()).Has(n)) {
            froml.push_back(n);
          } else if (schemas.at(d->children[1].get()).Has(n)) {
            fromr.push_back(n);
          } else {
            known = false;
            break;
          }
        }
        if (!known) continue;
        OpPtr r;
        if (fromr.empty()) {
          r = TrySide(op, chain, d, 0, pred, {}, schemas);
        } else if (froml.empty()) {
          r = TrySide(op, chain, d, 1, pred, {}, schemas);
        } else {
          r = TrySide(op, chain, d, 0, pred, fromr, schemas);
          if (r == nullptr) r = TrySide(op, chain, d, 1, pred, froml, schemas);
        }
        if (r == nullptr) continue;
        ++next_tag;
        done.insert(op->id);
        repl[plan.IndexOf(op)] = std::move(r);
        replaced = true;
        if (stats != nullptr) stats->selects_pushed++;
      }
      if (!replaced) return cur;
      cur = Stitch(cur, plan, repl);
    }
    // Out of rounds: cut the memo to the returned plan while the plan it
    // was last cut to is still pinned.
    alg::RetainSchemas(alg::NumberPlan(cur), &schemas);
    return cur;
  }
};

}  // namespace

Result<algebra::OpPtr> RemoveKeyDistinctsAndPushSelects(
    const algebra::OpPtr& root, const xml::Database* db,
    algebra::SchemaMap* schemas, JoinOptStats* stats) {
  alg::KeyAnalysis ka = alg::InferKeys(root, MakeStepUniqueness(db));
  OpPtr cur = RemoveKeyDistincts(root, ka, stats);
  SelectPusher sp{stats, {}};
  return sp.Run(std::move(cur), *schemas);
}

}  // namespace pathfinder::opt
