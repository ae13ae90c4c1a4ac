#include "opt/optimize.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "algebra/hash.h"
#include "algebra/schema.h"
#include "opt/path_rewrite.h"

namespace pathfinder::opt {

namespace {

namespace alg = pathfinder::algebra;
using alg::ColId;
using alg::Op;
using alg::OpKind;
using alg::OpPtr;
using bat::SetColBit;
using bat::TestColBit;

// ---------------------------------------------------------------------
// Dead-column analysis: which output columns of each node does any
// consumer actually read? One bitset per node over the round's local
// column numbers (bat::PlanColumns), indexed by the round's plan
// numbering.

void AnalyzeRequired(const alg::PlanNumbering& plan,
                     const alg::SchemaMap& schemas,
                     const bat::PlanColumns& cols, bat::ColBitRows* req) {
  req->Reset(plan.nodes.size(), cols.size());
  const size_t words = req->words();
  auto L = [&cols](ColId c) { return cols.Local(c); };
  auto add_schema_to = [&](uint64_t* need, const alg::Schema& s) {
    for (const auto& [n, t] : s.cols) SetColBit(need, L(n));
  };
  // Root (numbered last) needs its full schema.
  add_schema_to(req->Row(plan.nodes.size() - 1),
                schemas.at(plan.nodes.back()));
  for (size_t i = plan.nodes.size(); i-- > 0;) {
    const Op* op = plan.nodes[i];
    const uint64_t* R = req->Row(i);
    auto kid = [&](size_t k) {
      return req->Row(plan.IndexOf(op->children[k].get()));
    };
    auto kid_schema = [&](size_t k) -> const alg::Schema& {
      return schemas.at(op->children[k].get());
    };
    auto add_required = [&](uint64_t* need) {
      for (size_t w = 0; w < words; ++w) need[w] |= R[w];
    };
    // Everything required of op except its own new column `out`.
    auto add_all_but = [&](size_t k, ColId out) {
      uint64_t* need = kid(k);
      const uint32_t o = L(out);
      for (size_t w = 0; w < words; ++w) {
        uint64_t r = R[w];
        if (w == o >> 6) r &= ~(uint64_t{1} << (o & 63));
        need[w] |= r;
      }
    };
    auto add_cols = [&](size_t k, std::initializer_list<ColId> cs) {
      uint64_t* need = kid(k);
      for (ColId c : cs) SetColBit(need, L(c));
    };
    switch (op->kind) {
      case OpKind::kLitTable:
        break;
      case OpKind::kProject: {
        uint64_t* need = kid(0);
        for (const auto& [nw, old] : op->proj) {
          if (TestColBit(R, L(nw))) SetColBit(need, L(old));
        }
        break;
      }
      case OpKind::kAttach:
        add_all_but(0, op->out);
        break;
      case OpKind::kSelect:
        add_required(kid(0));
        add_cols(0, {op->col});
        break;
      case OpKind::kDisjointUnion:
        // Both sides must keep identical schemas; narrowing only one
        // side (whichever happens to be a Project) would desynchronize
        // them, so require the full width from both.
        add_schema_to(kid(0), kid_schema(0));
        add_schema_to(kid(1), kid_schema(1));
        break;
      case OpKind::kDifference: {
        uint64_t* need0 = kid(0);
        uint64_t* need1 = kid(1);
        add_required(need0);
        for (ColId k : op->keys) {
          SetColBit(need0, L(k));
          SetColBit(need1, L(k));
        }
        break;
      }
      case OpKind::kDistinct: {
        if (op->keys.empty()) {
          add_schema_to(kid(0), kid_schema(0));
        } else {
          uint64_t* need = kid(0);
          add_required(need);
          for (ColId k : op->keys) SetColBit(need, L(k));
        }
        break;
      }
      case OpKind::kEquiJoin:
      case OpKind::kThetaJoin:
      case OpKind::kCross: {
        const alg::Schema& sa = kid_schema(0);
        const alg::Schema& sb = kid_schema(1);
        uint64_t* need0 = kid(0);
        uint64_t* need1 = kid(1);
        // Each side keeps the required columns it provides.
        bool any0 = false, any1 = false;
        for (const auto& [n, t] : sa.cols) {
          if (TestColBit(R, L(n))) {
            SetColBit(need0, L(n));
            any0 = true;
          }
        }
        for (const auto& [n, t] : sb.cols) {
          if (TestColBit(R, L(n))) {
            SetColBit(need1, L(n));
            any1 = true;
          }
        }
        if (op->kind != OpKind::kCross) {
          SetColBit(need0, L(op->col));
          SetColBit(need1, L(op->col2));
        } else {
          // A side with nothing required still contributes its row
          // count; keep its first column.
          auto empty = [&](const uint64_t* need) {
            for (size_t w = 0; w < words; ++w) {
              if (need[w] != 0) return false;
            }
            return true;
          };
          if (!any0 && empty(need0) && !sa.cols.empty()) {
            SetColBit(need0, L(sa.cols[0].first));
          }
          if (!any1 && empty(need1) && !sb.cols.empty()) {
            SetColBit(need1, L(sb.cols[0].first));
          }
        }
        break;
      }
      case OpKind::kRowNum: {
        add_all_but(0, op->out);
        uint64_t* need = kid(0);
        for (ColId c : op->part) SetColBit(need, L(c));
        for (ColId c : op->order) SetColBit(need, L(c));
        break;
      }
      case OpKind::kStep:
      case OpKind::kDocRoot:
      case OpKind::kPathScan:
        add_cols(0, {bat::kIter, bat::kItem});
        break;
      case OpKind::kElemConstr:
        add_cols(0, {bat::kIter, bat::kItem});
        add_cols(1, {bat::kIter, bat::kPos, bat::kItem});
        break;
      case OpKind::kTextConstr:
      case OpKind::kAttrConstr:
      case OpKind::kSerialize:
        add_cols(0, {bat::kIter, bat::kPos, bat::kItem});
        break;
      case OpKind::kStrJoin:
        add_cols(0, {bat::kIter, bat::kPos, bat::kItem});
        add_cols(1, {bat::kIter, bat::kItem});
        break;
      case OpKind::kFun1:
        add_all_but(0, op->out);
        add_cols(0, {op->col});
        break;
      case OpKind::kFun2:
        add_all_but(0, op->out);
        add_cols(0, {op->col, op->col2});
        break;
      case OpKind::kAggr:
        add_cols(0, {op->col});
        if (op->col2 != bat::kNoCol) add_cols(0, {op->col2});
        break;
    }
  }
}

// ---------------------------------------------------------------------
// CSE / DAG-ification: hash-consing over the plan.
//
// Rebuilds the DAG bottom-up, replacing every node with a canonical
// representative: children are canonicalized first, so two subtrees are
// structurally equal exactly when their local parameters match (under
// the canonical orderings of algebra/hash.h) and their canonical
// children are the *same nodes*. Representatives sit in one flat
// open-addressing table keyed by the combined hash; collisions fall
// back to LocalParamsEqual.

class CseMerger {
 public:
  OpPtr Run(const OpPtr& root) {
    const alg::PlanNumbering plan = alg::NumberPlan(root);
    const size_t n = plan.nodes.size();
    const std::vector<const OpPtr*> owner = alg::NodeOwners(plan, root);
    std::vector<OpPtr> rep(n);       // node number -> representative
    std::vector<uint64_t> hash(n);   // node number -> its rep's hash
    size_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    // Slots hold 1 + the number of the node whose rep is stored there.
    std::vector<uint32_t> slots(cap, 0);
    for (size_t i = 0; i < n; ++i) {
      OpPtr node = alg::WithRebuiltChildren(plan, *owner[i], rep);
      uint64_t h = alg::LocalParamsHash(*node);
      for (const auto& c : plan.nodes[i]->children) {
        h = alg::CombineChildHash(h, hash[plan.IndexOf(c.get())]);
      }
      hash[i] = h;
      size_t s = (h * 0x9E3779B97F4A7C15ull >> 20) & (cap - 1);
      for (; slots[s] != 0; s = (s + 1) & (cap - 1)) {
        const size_t j = slots[s] - 1;
        const OpPtr& cand = rep[j];
        if (hash[j] != h || cand.get() == node.get()) continue;
        if (cand->children.size() != node->children.size()) continue;
        bool same_kids = true;
        for (size_t k = 0; k < cand->children.size(); ++k) {
          if (cand->children[k].get() != node->children[k].get()) {
            same_kids = false;
            break;
          }
        }
        if (!same_kids || !alg::LocalParamsEqual(*cand, *node)) continue;
        node = cand;
        break;
      }
      if (slots[s] == 0) {
        slots[s] = static_cast<uint32_t>(i + 1);
      } else {
        ++merges_;
      }
      rep[i] = std::move(node);
    }
    return rep.back();
  }

  int merges() const { return merges_; }

 private:
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
    if (opts_.cse) {
      CseMerger cse;
      cur = cse.Run(cur);
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
  /// bottom-up (children before parents) applying local rules.
  Result<OpPtr> Pass(const OpPtr& root) {
    plan_ = alg::NumberPlan(root);
    alg::RetainSchemas(plan_, &schemas_);
    // Only now may the previous round's nodes die: none is memoized.
    pinned_ = root;
    rebuilt_.assign(plan_.nodes.size(), nullptr);
    PF_RETURN_NOT_OK(alg::InferSchemas(root, &schemas_).status());
    cols_.Clear();
    alg::AddPlanColumns(plan_, &cols_);
    AnalyzeRequired(plan_, schemas_, cols_, &required_);
    const std::vector<const OpPtr*> owner = alg::NodeOwners(plan_, root);
    for (size_t i = 0; i < plan_.nodes.size(); ++i) {
      OpPtr node = alg::WithRebuiltChildren(plan_, *owner[i], rebuilt_);
      if (node.get() != plan_.nodes[i]) changed_ = true;
      PF_ASSIGN_OR_RETURN(rebuilt_[i], RewriteNode(std::move(node), i));
    }
    return rebuilt_.back();
  }

  /// Local rules; `orig` is the pre-rebuild node's number (its index
  /// into required_).
  Result<OpPtr> RewriteNode(OpPtr op, size_t orig) {
    // Rule: drop dead projection entries.
    if (op->kind == OpKind::kProject) {
      const uint64_t* R = required_.Row(orig);
      size_t nreq = 0;
      for (size_t w = 0; w < required_.words(); ++w) {
        nreq += static_cast<size_t>(std::popcount(R[w]));
      }
      if (nreq != 0 && nreq < op->proj.size()) {
        std::vector<std::pair<ColId, ColId>> kept;
        for (const auto& pr : op->proj) {
          if (TestColBit(R, cols_.Local(pr.first))) kept.push_back(pr);
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
      std::vector<std::pair<ColId, ColId>> fused;
      fused.reserve(op->proj.size());
      bool ok = true;
      for (const auto& [nw, mid] : op->proj) {
        const ColId* src = nullptr;
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
          std::vector<std::pair<ColId, ColId>> proj;
          proj.reserve(sl->cols.size());
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
    if (dist->keys.empty()) return false;
    // The key set, as a bitset over the round's local column numbers,
    // renamed to each operator's input while descending. Keys are a
    // handful of columns; `keys` lists them. Every column a node of
    // this round names is numbered (nodes rebuilt by the round only
    // reuse its columns); an unnumbered one just ends the proof.
    key_bits_.assign(bat::ColWords(cols_.size()), 0);
    std::vector<ColId>& keys = key_list_;
    keys.clear();
    auto in_set = [&](ColId c) {
      uint32_t b = cols_.Local(c);
      return b != bat::PlanColumns::kAbsent && TestColBit(key_bits_.data(), b);
    };
    // Adds `c` to the set; false if it is not numbered.
    auto add = [&](ColId c) {
      uint32_t b = cols_.Local(c);
      if (b == bat::PlanColumns::kAbsent) return false;
      SetColBit(key_bits_.data(), b);
      return true;
    };
    for (ColId k : dist->keys) {
      if (in_set(k)) continue;
      if (!add(k)) return false;
      keys.push_back(k);
    }
    // Is the current key set exactly the set of `cols`?
    auto keys_are = [&](const std::vector<ColId>& cols) {
      for (ColId c : cols) {
        if (!in_set(c)) return false;
      }
      for (ColId k : keys) {
        if (std::find(cols.begin(), cols.end(), k) == cols.end()) return false;
      }
      return true;
    };
    static const std::vector<ColId> kIterItem = {bat::kIter, bat::kItem};
    const Op* cur = dist->children[0].get();
    for (int guard = 0; guard < 64; ++guard) {
      switch (cur->kind) {
        case OpKind::kProject: {
          std::fill(key_bits_.begin(), key_bits_.end(), 0);
          size_t distinct = 0;
          for (ColId& k : keys) {
            auto it = std::find_if(
                cur->proj.begin(), cur->proj.end(),
                [&](const auto& p) { return p.first == k; });
            if (it == cur->proj.end()) return false;
            k = it->second;
            if (!in_set(k)) ++distinct;
            if (!add(k)) return false;
          }
          // Two keys renamed from one source column: keep the list a set.
          if (distinct != keys.size()) {
            std::sort(keys.begin(), keys.end());
            keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
          }
          cur = cur->children[0].get();
          break;
        }
        case OpKind::kRowNum:
        case OpKind::kAttach:
        case OpKind::kFun1:
        case OpKind::kFun2: {
          // Row-preserving; key columns must not be the new column.
          if (in_set(cur->out)) return false;
          cur = cur->children[0].get();
          break;
        }
        case OpKind::kStep:
        case OpKind::kPathScan:
          // Both emit the duplicate-free set {(iter, item)}.
          return keys_are(kIterItem);
        case OpKind::kDistinct:
          return !cur->keys.empty() && keys_are(cur->keys);
        default:
          return false;
      }
    }
    return false;
  }

  const alg::Schema* FindSchema(const OpPtr& op) {
    if (const alg::Schema* s = schemas_.Find(op.get())) return s;
    // Nodes created during this pass: infer on demand, down to the
    // memoized nodes. rebuilt_ keeps them alive until the next cut.
    auto r = alg::InferSchemas(op, &schemas_);
    if (!r.ok()) return nullptr;
    return schemas_.Find(op.get());
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
  // One schema memo for the whole call: every round and the cleanups
  // infer each node once. Pass cuts it to the round's input plan,
  // which pinned_ keeps alive until the next cut.
  alg::SchemaMap schemas_;
  OpPtr pinned_;
  // This round: the input plan's numbering, the columns each of its
  // nodes must keep, and what each node was rebuilt into.
  alg::PlanNumbering plan_;
  bat::PlanColumns cols_;  // numbers the columns of plan_
  bat::ColBitRows required_;
  std::vector<OpPtr> rebuilt_;
  // IsDistinctFree's scratch key set (bitset and member list).
  std::vector<uint64_t> key_bits_;
  std::vector<ColId> key_list_;
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
  OpPtr merged = cse.Run(root);
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

bool PathSumDefault() {
  static const bool kOn = [] {
    const char* e = std::getenv("PF_PATHSUM");
    return e == nullptr || std::string_view(e) != "0";
  }();
  return kOn;
}

}  // namespace pathfinder::opt
