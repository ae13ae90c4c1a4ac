#include "opt/join_graph.h"

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/schema.h"
#include "xml/database.h"
#include "xml/document.h"
#include "xml/stats.h"

namespace pathfinder::opt {

namespace alg = pathfinder::algebra;
using alg::Op;
using alg::OpKind;
using alg::OpPtr;

algebra::StepUniqueness MakeStepUniqueness(const xml::Database* db) {
  if (db == nullptr) return nullptr;
  return [db](accel::Axis axis, const accel::NodeTest& test) -> bool {
    size_t n = db->num_documents();
    if (n == 0) return false;
    for (size_t i = 0; i < n; ++i) {
      const xml::DocStats* s = db->doc(static_cast<xml::FragId>(i)).stats();
      if (s == nullptr) return false;
      switch (axis) {
        case accel::Axis::kChild:
          if (test.kind == accel::NodeTest::Kind::kName) {
            if (s->MaxChildren(test.name) > 1) return false;
          } else if (test.kind == accel::NodeTest::Kind::kText) {
            if (s->max_text_children > 1) return false;
          } else {
            return false;
          }
          break;
        case accel::Axis::kAttribute:
          if (test.kind != accel::NodeTest::Kind::kName) return false;
          if (s->MaxPerOwner(test.name) > 1) return false;
          break;
        default:
          return false;
      }
    }
    return true;
  };
}

namespace {

/// Re-stitch the plan, swapping every op in `repl` for its replacement.
/// Replacement subtrees are traversed too: a replaced select's input may
/// hold another replaced select.
OpPtr Stitch(const OpPtr& root,
             const std::unordered_map<const Op*, OpPtr>& repl) {
  std::unordered_map<const Op*, OpPtr> memo;
  std::function<OpPtr(const OpPtr&)> rec = [&](const OpPtr& op) -> OpPtr {
    auto it = memo.find(op.get());
    if (it != memo.end()) return it->second;
    OpPtr target = op;
    if (auto r = repl.find(op.get()); r != repl.end()) target = r->second;
    std::vector<OpPtr> kids;
    bool kid_changed = false;
    for (const auto& c : target->children) {
      OpPtr nc = rec(c);
      kid_changed |= nc.get() != c.get();
      kids.push_back(std::move(nc));
    }
    OpPtr out = target;
    if (kid_changed) {
      out = std::make_shared<Op>(*target);
      out->children = std::move(kids);
    }
    memo[op.get()] = out;
    return out;
  };
  return rec(root);
}

// ---------------------------------------------------------------------
// Pass 1: key-based distinct removal.

OpPtr RemoveKeyDistincts(const OpPtr& root, const alg::KeyAnalysis& ka,
                         JoinOptStats* stats) {
  std::unordered_map<const Op*, OpPtr> memo;
  std::function<OpPtr(const OpPtr&)> rec = [&](const OpPtr& op) -> OpPtr {
    auto it = memo.find(op.get());
    if (it != memo.end()) return it->second;
    std::vector<OpPtr> kids;
    bool changed = false;
    for (const auto& c : op->children) {
      OpPtr nc = rec(c);
      changed |= nc.get() != c.get();
      kids.push_back(std::move(nc));
    }
    OpPtr node = op;
    if (op->kind == OpKind::kDistinct && !op->keys.empty() &&
        ka.CoversKey(op->children[0].get(), op->keys)) {
      // The input provably carries no duplicate keys-tuples, and
      // DistinctIndices keeps first occurrences, so dropping the
      // operator preserves the exact row sequence.
      node = kids[0];
      if (stats != nullptr) stats->key_distincts_removed++;
    } else if (changed) {
      node = std::make_shared<Op>(*op);
      node->children = std::move(kids);
    }
    memo[op.get()] = node;
    return node;
  };
  return rec(root);
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

/// Rebuild column `col` of `op`'s output on top of `base` under the
/// name `out`, provided its value is row-independent (derived only
/// from attach constants / 1-row literal tables through fun chains).
/// Returns nullptr when the column is not provably constant.
OpPtr BuildConstCol(const Op* op, const std::string& col, OpPtr base,
                    const std::string& out, const alg::SchemaMap& schemas,
                    int depth) {
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
      OpPtr in = BuildConstCol(op->children[0].get(), op->col,
                               std::move(base), out + "i", schemas,
                               depth + 1);
      if (in == nullptr) return nullptr;
      return alg::MapFun1(std::move(in), op->fun1, out + "i", out);
    }
    case OpKind::kFun2: {
      if (op->out != col) {
        return BuildConstCol(op->children[0].get(), col, std::move(base),
                             out, schemas, depth + 1);
      }
      OpPtr a = BuildConstCol(op->children[0].get(), op->col,
                              std::move(base), out + "a", schemas,
                              depth + 1);
      OpPtr b = BuildConstCol(op->children[0].get(), op->col2, std::move(a),
                              out + "b", schemas, depth + 1);
      if (b == nullptr) return nullptr;
      return alg::MapFun2(std::move(b), op->fun2, out + "a", out + "b", out);
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
        auto it = schemas.find(op->children[s].get());
        if (it == schemas.end()) continue;
        for (const auto& [n, t] : it->second.cols) {
          if (n == col) {
            return BuildConstCol(op->children[s].get(), col, std::move(base),
                                 out, schemas, depth + 1);
          }
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
  std::string col;                          // kJoinCol
  bat::ColType ctype = bat::ColType::kItem;  // kConst
  Item cval{ItemKind::kInt, 0};              // kConst
  alg::Fun1 f1 = alg::Fun1::kNot;
  alg::Fun2 f2 = alg::Fun2::kAdd;
  std::shared_ptr<PredExpr> a, b;
};
using PredExprPtr = std::shared_ptr<PredExpr>;

void CollectJoinCols(const PredExprPtr& e, std::vector<std::string>* out) {
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

  /// Symbolically evaluate the chain (bottom-up) to express the
  /// select's predicate column over the join's output columns.
  PredExprPtr EvalChain(const std::vector<const Op*>& chain,
                        const alg::Schema& join_schema,
                        const std::string& pred_col) {
    std::unordered_map<std::string, PredExprPtr> env;
    for (const auto& [n, t] : join_schema.cols) {
      auto e = std::make_shared<PredExpr>();
      e->kind = PredExpr::Kind::kJoinCol;
      e->col = n;
      env[n] = e;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const Op* c = *it;
      switch (c->kind) {
        case OpKind::kProject: {
          std::unordered_map<std::string, PredExprPtr> next;
          for (const auto& [nw, old] : c->proj) {
            auto oit = env.find(old);
            if (oit == env.end()) return nullptr;
            next[nw] = oit->second;
          }
          env = std::move(next);
          break;
        }
        case OpKind::kAttach: {
          auto e = std::make_shared<PredExpr>();
          e->kind = PredExpr::Kind::kConst;
          e->ctype = c->types[0];
          e->cval = c->attach_val;
          env[c->out] = e;
          break;
        }
        case OpKind::kFun1: {
          auto ait = env.find(c->col);
          if (ait == env.end()) return nullptr;
          auto e = std::make_shared<PredExpr>();
          e->kind = PredExpr::Kind::kFun1;
          e->f1 = c->fun1;
          e->a = ait->second;
          env[c->out] = e;
          break;
        }
        case OpKind::kFun2: {
          auto ait = env.find(c->col);
          auto bit = env.find(c->col2);
          if (ait == env.end() || bit == env.end()) return nullptr;
          auto e = std::make_shared<PredExpr>();
          e->kind = PredExpr::Kind::kFun2;
          e->f2 = c->fun2;
          e->a = ait->second;
          e->b = bit->second;
          env[c->out] = e;
          break;
        }
        default:
          return nullptr;
      }
    }
    auto pit = env.find(pred_col);
    return pit == env.end() ? nullptr : pit->second;
  }

  /// Emit ops computing `e` on top of `*base`; returns the column name
  /// holding the result (empty string = failure).
  std::string Emit(const PredExprPtr& e, OpPtr* base, int sel_id,
                   int* fresh,
                   const std::unordered_map<std::string, std::string>& ren) {
    auto name = [&] {
      return "jp" + std::to_string(sel_id) + "_" + std::to_string((*fresh)++);
    };
    switch (e->kind) {
      case PredExpr::Kind::kJoinCol: {
        auto it = ren.find(e->col);
        return it == ren.end() ? e->col : it->second;
      }
      case PredExpr::Kind::kConst: {
        std::string n = name();
        *base = alg::Attach(std::move(*base), n, e->ctype, e->cval);
        return n;
      }
      case PredExpr::Kind::kFun1: {
        std::string in = Emit(e->a, base, sel_id, fresh, ren);
        if (in.empty()) return "";
        std::string n = name();
        *base = alg::MapFun1(std::move(*base), e->f1, in, n);
        return n;
      }
      case PredExpr::Kind::kFun2: {
        std::string in1 = Emit(e->a, base, sel_id, fresh, ren);
        std::string in2 = Emit(e->b, base, sel_id, fresh, ren);
        if (in1.empty() || in2.empty()) return "";
        std::string n = name();
        *base = alg::MapFun2(std::move(*base), e->f2, in1, in2, n);
        return n;
      }
    }
    return "";
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
                const std::vector<std::string>& other,
                const alg::SchemaMap& schemas) {
    OpPtr side = join->children[s];
    std::unordered_map<std::string, std::string> ren;
    for (const auto& c : other) {
      std::string fresh_name = "jp" + std::to_string(sel->id) + "_" + c;
      side = BuildConstCol(join->children[1 - s].get(), c, std::move(side),
                           fresh_name, schemas, 0);
      if (side == nullptr) return nullptr;
      ren[c] = fresh_name;
    }
    int fresh = 0;
    std::string pcol = Emit(pred, &side, sel->id, &fresh, ren);
    if (pcol.empty()) return nullptr;
    side = alg::Select(std::move(side), pcol);  // fresh id: can cascade
    std::vector<std::pair<std::string, std::string>> proj;
    for (const auto& [n, t] : schemas.at(join->children[s].get()).cols) {
      proj.emplace_back(n, n);
    }
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
        for (const auto& c : op->children) consumers[plan.index.at(c.get())]++;
      }
      auto consumers_of = [&](const Op* op) {
        return consumers[plan.index.at(op)];
      };
      std::unordered_map<const Op*, OpPtr> repl;
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
        std::vector<std::string> needed;
        CollectJoinCols(pred, &needed);
        if (needed.empty()) continue;  // constant predicate: leave alone
        std::vector<std::string> froml, fromr;
        bool known = true;
        for (const auto& n : needed) {
          bool inl = false, inr = false;
          for (const auto& [cn, t] : schemas.at(d->children[0].get()).cols) {
            if (cn == n) inl = true;
          }
          for (const auto& [cn, t] : schemas.at(d->children[1].get()).cols) {
            if (cn == n) inr = true;
          }
          if (inl) {
            froml.push_back(n);
          } else if (inr) {
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
        done.insert(op->id);
        repl[op] = std::move(r);
        if (stats != nullptr) stats->selects_pushed++;
      }
      if (repl.empty()) return cur;
      cur = Stitch(cur, repl);
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
