#include "opt/optimize.h"

#include <cstdlib>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "algebra/hash.h"
#include "algebra/schema.h"
#include "opt/join_graph.h"
#include "opt/path_rewrite.h"

namespace pathfinder::opt {

namespace {

namespace alg = pathfinder::algebra;
using alg::Op;
using alg::OpKind;
using alg::OpPtr;
using ColSet = std::set<std::string>;

// ---------------------------------------------------------------------
// Dead-column analysis: which output columns of each node does any
// consumer actually read? One set per node, indexed by the round's plan
// numbering.

using Required = std::vector<ColSet>;

Required AnalyzeRequired(const alg::PlanNumbering& plan,
                         const alg::SchemaMap& schemas) {
  Required req(plan.nodes.size());
  // Root (numbered last) needs its full schema.
  for (const auto& [n, t] : schemas.at(plan.nodes.back()).cols) {
    req.back().insert(n);
  }
  for (size_t i = plan.nodes.size(); i-- > 0;) {
    const Op* op = plan.nodes[i];
    const ColSet& R = req[i];
    auto kid = [&](size_t k) -> ColSet& {
      return req[plan.index.at(op->children[k].get())];
    };
    auto kid_schema = [&](size_t k) -> const alg::Schema& {
      return schemas.at(op->children[k].get());
    };
    auto add_schema = [&](size_t k) {
      ColSet& need = kid(k);
      for (const auto& [n, t] : kid_schema(k).cols) need.insert(n);
    };
    // Everything required of op except its own new column `out`.
    auto add_all_but = [&](size_t k, const std::string& out) {
      ColSet& need = kid(k);
      for (const auto& c : R) {
        if (c != out) need.insert(c);
      }
    };
    switch (op->kind) {
      case OpKind::kLitTable:
        break;
      case OpKind::kProject: {
        ColSet& need = kid(0);
        for (const auto& [nw, old] : op->proj) {
          if (R.count(nw)) need.insert(old);
        }
        break;
      }
      case OpKind::kAttach:
        add_all_but(0, op->out);
        break;
      case OpKind::kSelect: {
        ColSet& need = kid(0);
        need.insert(R.begin(), R.end());
        need.insert(op->col);
        break;
      }
      case OpKind::kDisjointUnion:
        // Both sides must keep identical schemas; narrowing only one
        // side (whichever happens to be a Project) would desynchronize
        // them, so require the full width from both.
        add_schema(0);
        add_schema(1);
        break;
      case OpKind::kDifference: {
        ColSet& need0 = kid(0);
        ColSet& need1 = kid(1);
        need0.insert(R.begin(), R.end());
        for (const auto& k : op->keys) {
          need0.insert(k);
          need1.insert(k);
        }
        break;
      }
      case OpKind::kDistinct: {
        if (op->keys.empty()) {
          add_schema(0);
        } else {
          ColSet& need = kid(0);
          need.insert(R.begin(), R.end());
          need.insert(op->keys.begin(), op->keys.end());
        }
        break;
      }
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
      case OpKind::kCross: {
        const alg::Schema& sa = kid_schema(0);
        const alg::Schema& sb = kid_schema(1);
        ColSet& need0 = kid(0);
        ColSet& need1 = kid(1);
        for (const auto& c : R) {
          if (sa.Has(c)) need0.insert(c);
          if (sb.Has(c)) need1.insert(c);
        }
        if (op->kind != OpKind::kCross) {
          need0.insert(op->col);
          need1.insert(op->col2);
        } else {
          // A side with nothing required still contributes its row
          // count; keep its first column.
          if (need0.empty() && !sa.cols.empty()) {
            need0.insert(sa.cols[0].first);
          }
          if (need1.empty() && !sb.cols.empty()) {
            need1.insert(sb.cols[0].first);
          }
        }
        break;
      }
      case OpKind::kRowNum: {
        add_all_but(0, op->out);
        ColSet& need = kid(0);
        need.insert(op->part.begin(), op->part.end());
        need.insert(op->order.begin(), op->order.end());
        break;
      }
      case OpKind::kStep:
      case OpKind::kDocRoot:
      case OpKind::kPathScan:
        kid(0).insert({"iter", "item"});
        break;
      case OpKind::kElemConstr:
        kid(0).insert({"iter", "item"});
        kid(1).insert({"iter", "pos", "item"});
        break;
      case OpKind::kTextConstr:
      case OpKind::kAttrConstr:
      case OpKind::kSerialize:
        kid(0).insert({"iter", "pos", "item"});
        break;
      case OpKind::kStrJoin:
        kid(0).insert({"iter", "pos", "item"});
        kid(1).insert({"iter", "item"});
        break;
      case OpKind::kFun1:
        add_all_but(0, op->out);
        kid(0).insert(op->col);
        break;
      case OpKind::kFun2:
        add_all_but(0, op->out);
        kid(0).insert({op->col, op->col2});
        break;
      case OpKind::kAggr:
        kid(0).insert(op->col);
        if (!op->col2.empty()) kid(0).insert(op->col2);
        break;
    }
  }
  return req;
}

// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// CSE / DAG-ification: hash-consing over the plan.
//
// Rebuilds the DAG bottom-up, replacing every node with a canonical
// representative: children are canonicalized first, so two subtrees are
// structurally equal exactly when their local parameters match (under
// the canonical orderings of algebra/hash.h) and their canonical
// children are the *same nodes*. Buckets are keyed by the combined
// hash; collisions fall back to LocalParamsEqual.

class CseMerger {
 public:
  OpPtr Rec(const OpPtr& op) {
    auto it = memo_.find(op.get());
    if (it != memo_.end()) return it->second;
    std::vector<OpPtr> kids;
    kids.reserve(op->children.size());
    bool kid_changed = false;
    for (const auto& c : op->children) {
      OpPtr nc = Rec(c);
      kid_changed |= nc.get() != c.get();
      kids.push_back(std::move(nc));
    }
    OpPtr node = op;
    if (kid_changed) {
      node = std::make_shared<Op>(*op);
      node->children = std::move(kids);
    }
    uint64_t h = alg::LocalParamsHash(*node);
    for (const auto& c : node->children) {
      h = alg::CombineChildHash(h, rep_hash_.at(c.get()));
    }
    for (const OpPtr& cand : buckets_[h]) {
      if (cand.get() == node.get()) continue;
      if (cand->children.size() != node->children.size()) continue;
      bool same_kids = true;
      for (size_t i = 0; i < cand->children.size(); ++i) {
        if (cand->children[i].get() != node->children[i].get()) {
          same_kids = false;
          break;
        }
      }
      if (!same_kids || !alg::LocalParamsEqual(*cand, *node)) continue;
      ++merges_;
      memo_[op.get()] = cand;
      return cand;
    }
    buckets_[h].push_back(node);
    rep_hash_[node.get()] = h;
    memo_[op.get()] = node;
    return node;
  }

  int merges() const { return merges_; }

 private:
  std::unordered_map<const Op*, OpPtr> memo_;       // orig -> representative
  std::unordered_map<const Op*, uint64_t> rep_hash_;
  std::unordered_map<uint64_t, std::vector<OpPtr>> buckets_;
  int merges_ = 0;
};

// ---------------------------------------------------------------------

class Optimizer {
 public:
  Optimizer(OptimizeStats* stats, const OptimizeOptions& opts)
      : stats_(stats), opts_(opts) {}

  Result<OpPtr> Run(OpPtr cur) {
    if (stats_) {
      *stats_ = OptimizeStats{};  // a reused struct must not accumulate
    }
    for (int round = 0; round < 8; ++round) {
      if (stats_) stats_->rounds = round + 1;
      changed_ = false;
      PF_ASSIGN_OR_RETURN(cur, Pass(cur));
      if (stats_ && round == 0) stats_->ops_before = plan_.nodes.size();
      if (!changed_) break;
    }
    if (opts_.path_summary) {
      // After the fixpoint: step chains are now in their canonical
      // scjoin/rownum/project shape.
      PathRewriteStats ps;
      PF_ASSIGN_OR_RETURN(cur, RewritePathChains(cur, &ps));
      if (stats_) stats_->structural_answers = ps.chains_collapsed;
      if (ps.chains_collapsed > 0) {
        // The plumbing between collapsed links is now dead; let the
        // peephole clean it up.
        for (int round = 0; round < 2; ++round) {
          changed_ = false;
          PF_ASSIGN_OR_RETURN(cur, Pass(cur));
          if (!changed_) break;
        }
      }
    }
    if (opts_.join_opt) {
      JoinOptStats js;
      PF_ASSIGN_OR_RETURN(
          cur, RemoveKeyDistinctsAndPushSelects(cur, opts_.db, &schemas_, &js));
      if (stats_) {
        stats_->selects_pushed = js.selects_pushed;
        stats_->key_distincts_removed = js.key_distincts_removed;
      }
      if (js.selects_pushed > 0 || js.key_distincts_removed > 0) {
        // Clean up the rewritten regions (fresh rename projections
        // fuse, unused columns die).
        for (int round = 0; round < 2; ++round) {
          changed_ = false;
          PF_ASSIGN_OR_RETURN(cur, Pass(cur));
          if (!changed_) break;
        }
      }
    }
    if (opts_.cse) {
      CseMerger cse;
      cur = cse.Rec(cur);
      if (stats_) stats_->cse_merges = cse.merges();
    }
    // Validate the whole plan with a fresh memo: the shared one vouches
    // only for what it inferred itself.
    alg::SchemaMap final_schemas;
    PF_RETURN_NOT_OK(alg::InferSchemas(cur, &final_schemas).status());
    if (stats_) stats_->ops_after = final_schemas.size();
    return cur;
  }

 private:
  /// One rewrite pass: number the plan, infer the schemas of the nodes
  /// the memo lacks and the required columns, then rebuild the DAG
  /// bottom-up applying local rules.
  Result<OpPtr> Pass(const OpPtr& root) {
    plan_ = alg::NumberPlan(root);
    alg::RetainSchemas(plan_, &schemas_);
    // Only now may the previous round's nodes die: none is memoized.
    pinned_ = root;
    rebuilt_.assign(plan_.nodes.size(), nullptr);
    PF_RETURN_NOT_OK(alg::InferSchemas(root, &schemas_).status());
    required_ = AnalyzeRequired(plan_, schemas_);
    return RebuildRec(root);
  }

  Result<OpPtr> RebuildRec(const OpPtr& op) {
    const size_t orig = plan_.index.at(op.get());
    if (rebuilt_[orig]) return rebuilt_[orig];
    std::vector<OpPtr> kids;
    bool kid_changed = false;
    for (const auto& c : op->children) {
      PF_ASSIGN_OR_RETURN(OpPtr nc, RebuildRec(c));
      kid_changed |= nc.get() != c.get();
      kids.push_back(std::move(nc));
    }
    OpPtr node = op;
    if (kid_changed) {
      node = std::make_shared<Op>(*op);
      node->children = kids;
      changed_ = true;
    }
    PF_ASSIGN_OR_RETURN(OpPtr rewritten, RewriteNode(node, orig));
    rebuilt_[orig] = rewritten;
    return rewritten;
  }

  /// Local rules; `orig` is the pre-rebuild node's number (its index
  /// into required_).
  Result<OpPtr> RewriteNode(OpPtr op, size_t orig) {
    // Rule: drop dead projection entries.
    if (op->kind == OpKind::kProject) {
      const ColSet& R = required_[orig];
      if (!R.empty() && R.size() < op->proj.size()) {
        std::vector<std::pair<std::string, std::string>> kept;
        for (const auto& pr : op->proj) {
          if (R.count(pr.first)) kept.push_back(pr);
        }
        if (!kept.empty() && kept.size() < op->proj.size()) {
          // Count the entries dropped, before the clone narrows proj.
          if (stats_) {
            stats_->dead_columns_pruned +=
                static_cast<int>(op->proj.size() - kept.size());
          }
          op = CloneWith(op, [&](Op* n) { n->proj = kept; });
        }
      }
    }

    // Rule: π∘π fusion.
    if (op->kind == OpKind::kProject &&
        op->children[0]->kind == OpKind::kProject) {
      const Op& inner = *op->children[0];
      std::vector<std::pair<std::string, std::string>> fused;
      bool ok = true;
      for (const auto& [nw, mid] : op->proj) {
        const std::string* src = nullptr;
        for (const auto& [m, old] : inner.proj) {
          if (m == mid) {
            src = &old;
            break;
          }
        }
        if (!src) {
          ok = false;
          break;
        }
        fused.emplace_back(nw, *src);
      }
      if (ok) {
        OpPtr nw = alg::Project(inner.children[0], fused);
        if (stats_) stats_->projections_fused++;
        changed_ = true;
        op = nw;
      }
    }

    // Rule: π over attach whose attached column is not projected.
    if (op->kind == OpKind::kProject &&
        op->children[0]->kind == OpKind::kAttach) {
      const Op& att = *op->children[0];
      bool uses = false;
      for (const auto& [nw, old] : op->proj) {
        if (old == att.out) {
          uses = true;
          break;
        }
      }
      if (!uses) {
        OpPtr nw = alg::Project(att.children[0], op->proj);
        if (stats_) stats_->dead_columns_pruned++;
        changed_ = true;
        op = nw;
      }
    }

    // Rule: identity projection.
    if (op->kind == OpKind::kProject) {
      const alg::Schema* cs = FindSchema(op->children[0]);
      if (cs && cs->cols.size() == op->proj.size()) {
        bool identity = true;
        for (size_t i = 0; i < op->proj.size(); ++i) {
          if (op->proj[i].first != op->proj[i].second ||
              op->proj[i].second != cs->cols[i].first) {
            identity = false;
            break;
          }
        }
        if (identity) {
          changed_ = true;
          if (stats_) stats_->projections_fused++;
          return op->children[0];
        }
      }
    }

    // Rule: δ after a staircase join is a no-op (scj output is
    // duplicate-free and doc-ordered per iter).
    if (op->kind == OpKind::kDistinct && IsDistinctFree(op)) {
      changed_ = true;
      if (stats_) stats_->distincts_removed++;
      return op->children[0];
    }

    // Rule: ∪ with a statically empty side.
    if (op->kind == OpKind::kDisjointUnion) {
      auto is_empty = [](const OpPtr& c) {
        return c->kind == OpKind::kLitTable && c->rows.empty();
      };
      if (is_empty(op->children[1])) {
        changed_ = true;
        if (stats_) stats_->unions_simplified++;
        return op->children[0];
      }
      if (is_empty(op->children[0])) {
        // Keep the left schema's column order.
        const alg::Schema* sl = FindSchema(op->children[0]);
        if (sl) {
          std::vector<std::pair<std::string, std::string>> proj;
          for (const auto& [n, t] : sl->cols) proj.emplace_back(n, n);
          changed_ = true;
          if (stats_) stats_->unions_simplified++;
          return alg::Project(op->children[1], proj);
        }
      }
    }

    return op;
  }

  /// Does this δ's input provably contain no duplicate (keys)-tuples?
  /// Walks down through row-preserving operators that keep the key
  /// columns intact, looking for a Step (whose (iter, item) output is a
  /// set) or an equal-keyed Distinct.
  bool IsDistinctFree(const OpPtr& dist) {
    // Track where each key column came from while descending.
    std::vector<std::string> keys = dist->keys;
    if (keys.empty()) return false;
    const Op* cur = dist->children[0].get();
    for (int guard = 0; guard < 64; ++guard) {
      switch (cur->kind) {
        case OpKind::kProject: {
          std::vector<std::string> mapped;
          for (const auto& k : keys) {
            const std::string* src = nullptr;
            for (const auto& [nw, old] : cur->proj) {
              if (nw == k) {
                src = &old;
                break;
              }
            }
            if (!src) return false;
            mapped.push_back(*src);
          }
          keys = mapped;
          cur = cur->children[0].get();
          break;
        }
        case OpKind::kRowNum:
        case OpKind::kAttach:
        case OpKind::kFun1:
        case OpKind::kFun2: {
          // Row-preserving; key columns must not be the new column.
          for (const auto& k : keys) {
            if (k == cur->out) return false;
          }
          cur = cur->children[0].get();
          break;
        }
        case OpKind::kStep:
        case OpKind::kPathScan: {
          // Both emit the duplicate-free set {(iter, item)}.
          std::set<std::string> ks(keys.begin(), keys.end());
          return ks == std::set<std::string>{"iter", "item"};
        }
        case OpKind::kDistinct: {
          std::set<std::string> ks(keys.begin(), keys.end());
          std::set<std::string> ds(cur->keys.begin(), cur->keys.end());
          return !ds.empty() && ds == ks;
        }
        default:
          return false;
      }
    }
    return false;
  }

  const alg::Schema* FindSchema(const OpPtr& op) {
    auto it = schemas_.find(op.get());
    if (it != schemas_.end()) return &it->second;
    // Nodes created during this pass: infer on demand, down to the
    // memoized nodes. rebuilt_ keeps them alive until the next cut.
    auto r = alg::InferSchemas(op, &schemas_);
    if (!r.ok()) return nullptr;
    return &schemas_.at(op.get());
  }

  template <typename Fn>
  OpPtr CloneWith(const OpPtr& op, Fn&& fn) {
    auto nw = std::make_shared<Op>(*op);
    fn(nw.get());
    changed_ = true;
    return nw;
  }

  OptimizeStats* stats_;
  OptimizeOptions opts_;
  bool changed_ = false;
  // One schema memo for the whole call: every round, the cleanups and
  // the join-graph pass infer each node once. Pass cuts it to the
  // round's input plan, which pinned_ keeps alive until the next cut.
  alg::SchemaMap schemas_;
  OpPtr pinned_;
  // This round: the input plan's numbering, the columns each of its
  // nodes must keep, and what each node was rebuilt into.
  alg::PlanNumbering plan_;
  Required required_;
  std::vector<OpPtr> rebuilt_;
};

}  // namespace

Result<algebra::OpPtr> Optimize(const algebra::OpPtr& root,
                                OptimizeStats* stats,
                                const OptimizeOptions& opts) {
  Optimizer o(stats, opts);
  return o.Run(root);
}

Result<algebra::OpPtr> CseMerge(const algebra::OpPtr& root, int* merges) {
  CseMerger cse;
  OpPtr merged = cse.Rec(root);
  if (merges) *merges += cse.merges();
  PF_RETURN_NOT_OK(alg::ValidatePlan(merged));
  return merged;
}

bool CseDefault() {
  static const bool kOn = [] {
    const char* e = std::getenv("PF_CSE");
    return e == nullptr || std::string_view(e) != "0";
  }();
  return kOn;
}

bool JoinOptDefault() {
  static const bool kOn = [] {
    const char* e = std::getenv("PF_JOINOPT");
    return e == nullptr || std::string_view(e) != "0";
  }();
  return kOn;
}

bool PathSumDefault() {
  static const bool kOn = [] {
    const char* e = std::getenv("PF_PATHSUM");
    return e == nullptr || std::string_view(e) != "0";
  }();
  return kOn;
}

}  // namespace pathfinder::opt
