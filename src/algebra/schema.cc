#include "algebra/schema.h"

#include <sstream>

namespace pathfinder::algebra {

std::string Schema::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i) os << " | ";
    os << bat::ColName(cols[i].first) << ":"
       << bat::ColTypeName(cols[i].second);
  }
  return os.str();
}

namespace {

Status Fail(const Op& op, const std::string& msg) {
  return Status::Internal(std::string(OpKindName(op.kind)) + " (op " +
                          std::to_string(op.id) + "): " + msg);
}

/// `name` quoted for an error message.
std::string Quote(ColId name) {
  return "'" + std::string(bat::ColName(name)) + "'";
}

Result<bat::ColType> ColOf(const Op& op, const Schema& s, ColId name) {
  int i = s.Find(name);
  if (i < 0) return Fail(op, "unknown column " + Quote(name));
  return s.cols[static_cast<size_t>(i)].second;
}

/// The (iter INT, item ITEM) schema of steps and constructors.
Schema IterItem() {
  Schema s;
  s.cols = {{bat::kIter, bat::ColType::kInt},
            {bat::kItem, bat::ColType::kItem}};
  return s;
}

/// A copy of `s` with room for `extra` more columns.
Schema Extend(const Schema& s, size_t extra) {
  Schema out;
  out.cols.reserve(s.cols.size() + extra);
  out.cols = s.cols;
  return out;
}

Status RequireSeqCols(const Op& op, const Schema& s, bool need_pos) {
  PF_ASSIGN_OR_RETURN(bat::ColType it, ColOf(op, s, bat::kIter));
  if (it != bat::ColType::kInt) return Fail(op, "iter must be int");
  PF_ASSIGN_OR_RETURN(bat::ColType im, ColOf(op, s, bat::kItem));
  if (im != bat::ColType::kItem) return Fail(op, "item must be item");
  if (need_pos) {
    PF_ASSIGN_OR_RETURN(bat::ColType p, ColOf(op, s, bat::kPos));
    if (p != bat::ColType::kInt) return Fail(op, "pos must be int");
  }
  return Status::OK();
}

Result<Schema> InferOne(const Op& op, const std::vector<const Schema*>& cs) {
  auto require_children = [&](size_t n) -> Status {
    if (cs.size() != n) {
      return Fail(op, "expected " + std::to_string(n) + " children, got " +
                          std::to_string(cs.size()));
    }
    return Status::OK();
  };

  switch (op.kind) {
    case OpKind::kLitTable: {
      PF_RETURN_NOT_OK(require_children(0));
      if (op.names.size() != op.types.size()) {
        return Fail(op, "names/types size mismatch");
      }
      for (const auto& row : op.rows) {
        if (row.size() != op.names.size()) {
          return Fail(op, "row width mismatch");
        }
      }
      Schema s;
      s.cols.reserve(op.names.size());
      for (size_t i = 0; i < op.names.size(); ++i) {
        if (s.Has(op.names[i])) {
          return Fail(op, "duplicate column " + Quote(op.names[i]));
        }
        s.cols.emplace_back(op.names[i], op.types[i]);
      }
      return s;
    }
    case OpKind::kProject: {
      PF_RETURN_NOT_OK(require_children(1));
      Schema s;
      s.cols.reserve(op.proj.size());
      for (const auto& [nw, old] : op.proj) {
        PF_ASSIGN_OR_RETURN(bat::ColType t, ColOf(op, *cs[0], old));
        if (s.Has(nw)) return Fail(op, "duplicate output column " + Quote(nw));
        s.cols.emplace_back(nw, t);
      }
      return s;
    }
    case OpKind::kAttach: {
      PF_RETURN_NOT_OK(require_children(1));
      if (cs[0]->Has(op.out)) {
        return Fail(op, "attached column " + Quote(op.out) +
                            " already exists");
      }
      Schema s = Extend(*cs[0], 1);
      s.cols.emplace_back(op.out, op.types.at(0));
      return s;
    }
    case OpKind::kSelect: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_ASSIGN_OR_RETURN(bat::ColType t, ColOf(op, *cs[0], op.col));
      if (t != bat::ColType::kBool) {
        return Fail(op, "selection predicate must be bool");
      }
      return *cs[0];
    }
    case OpKind::kDisjointUnion: {
      PF_RETURN_NOT_OK(require_children(2));
      if (cs[0]->cols.size() != cs[1]->cols.size()) {
        return Fail(op, "schema width mismatch");
      }
      for (const auto& [name, type] : cs[0]->cols) {
        PF_ASSIGN_OR_RETURN(bat::ColType t2, ColOf(op, *cs[1], name));
        if (t2 != type) {
          return Fail(op, "column " + Quote(name) + " type mismatch");
        }
      }
      return *cs[0];
    }
    case OpKind::kDifference: {
      PF_RETURN_NOT_OK(require_children(2));
      const auto& keys = op.keys;
      if (keys.empty()) return Fail(op, "difference needs key columns");
      for (ColId k : keys) {
        PF_ASSIGN_OR_RETURN(bat::ColType ta, ColOf(op, *cs[0], k));
        PF_ASSIGN_OR_RETURN(bat::ColType tb, ColOf(op, *cs[1], k));
        if (ta != tb) return Fail(op, "key " + Quote(k) + " type mismatch");
      }
      return *cs[0];
    }
    case OpKind::kDistinct: {
      PF_RETURN_NOT_OK(require_children(1));
      for (ColId k : op.keys) {
        PF_RETURN_NOT_OK(ColOf(op, *cs[0], k).status());
      }
      return *cs[0];
    }
    case OpKind::kEquiJoin:
    case OpKind::kThetaJoin: {
      PF_RETURN_NOT_OK(require_children(2));
      PF_ASSIGN_OR_RETURN(bat::ColType ta, ColOf(op, *cs[0], op.col));
      PF_ASSIGN_OR_RETURN(bat::ColType tb, ColOf(op, *cs[1], op.col2));
      if (op.kind == OpKind::kEquiJoin && ta != tb) {
        return Fail(op, "join key type mismatch");
      }
      Schema s = Extend(*cs[0], cs[1]->cols.size());
      for (const auto& [name, type] : cs[1]->cols) {
        if (s.Has(name)) {
          return Fail(op, "join sides share column " + Quote(name));
        }
        s.cols.emplace_back(name, type);
      }
      return s;
    }
    case OpKind::kCross: {
      PF_RETURN_NOT_OK(require_children(2));
      Schema s = Extend(*cs[0], cs[1]->cols.size());
      for (const auto& [name, type] : cs[1]->cols) {
        if (s.Has(name)) {
          return Fail(op, "cross sides share column " + Quote(name));
        }
        s.cols.emplace_back(name, type);
      }
      return s;
    }
    case OpKind::kRowNum: {
      PF_RETURN_NOT_OK(require_children(1));
      if (!op.order_desc.empty() &&
          op.order_desc.size() != op.order.size()) {
        return Fail(op, "order_desc size mismatch");
      }
      for (ColId k : op.part) {
        PF_RETURN_NOT_OK(ColOf(op, *cs[0], k).status());
      }
      for (ColId k : op.order) {
        PF_RETURN_NOT_OK(ColOf(op, *cs[0], k).status());
      }
      if (cs[0]->Has(op.out)) {
        return Fail(op, "rownum column " + Quote(op.out) + " already exists");
      }
      Schema s = Extend(*cs[0], 1);
      s.cols.emplace_back(op.out, bat::ColType::kInt);
      return s;
    }
    case OpKind::kStep: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/false));
      return IterItem();
    }
    case OpKind::kPathScan: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/false));
      if (op.path.empty()) return Fail(op, "pathscan with empty chain");
      return IterItem();
    }
    case OpKind::kDocRoot: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/false));
      return IterItem();
    }
    case OpKind::kElemConstr: {
      PF_RETURN_NOT_OK(require_children(2));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/false));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[1], /*need_pos=*/true));
      return IterItem();
    }
    case OpKind::kTextConstr: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/false));
      return IterItem();
    }
    case OpKind::kStrJoin: {
      PF_RETURN_NOT_OK(require_children(2));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/true));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[1], /*need_pos=*/false));
      return IterItem();
    }
    case OpKind::kAttrConstr: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/true));
      return IterItem();
    }
    case OpKind::kFun1: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_ASSIGN_OR_RETURN(bat::ColType tin, ColOf(op, *cs[0], op.col));
      bat::ColType expect_in, tout;
      switch (op.fun1) {
        case Fun1::kNot:
          expect_in = bat::ColType::kBool;
          tout = bat::ColType::kBool;
          break;
        case Fun1::kBoolToItem:
          expect_in = bat::ColType::kBool;
          tout = bat::ColType::kItem;
          break;
        case Fun1::kItemToBool:
        case Fun1::kIsElement:
        case Fun1::kIsAttribute:
        case Fun1::kIsText:
        case Fun1::kIsNode:
        case Fun1::kIsInt:
        case Fun1::kIsDouble:
        case Fun1::kIsString:
        case Fun1::kIsBool:
          expect_in = bat::ColType::kItem;
          tout = bat::ColType::kBool;
          break;
        case Fun1::kIntToItem:
          expect_in = bat::ColType::kInt;
          tout = bat::ColType::kItem;
          break;
        default:
          expect_in = bat::ColType::kItem;
          tout = bat::ColType::kItem;
          break;
      }
      if (tin != expect_in) return Fail(op, "fun1 input type mismatch");
      if (cs[0]->Has(op.out)) {
        return Fail(op, "fun1 output " + Quote(op.out) + " already exists");
      }
      Schema s = Extend(*cs[0], 1);
      s.cols.emplace_back(op.out, tout);
      return s;
    }
    case OpKind::kFun2: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_ASSIGN_OR_RETURN(bat::ColType t1, ColOf(op, *cs[0], op.col));
      PF_ASSIGN_OR_RETURN(bat::ColType t2, ColOf(op, *cs[0], op.col2));
      bat::ColType expect, tout;
      switch (op.fun2) {
        case Fun2::kAnd:
        case Fun2::kOr:
          expect = bat::ColType::kBool;
          tout = bat::ColType::kBool;
          break;
        case Fun2::kAdd:
        case Fun2::kSub:
        case Fun2::kMul:
        case Fun2::kDiv:
        case Fun2::kIdiv:
        case Fun2::kMod:
        case Fun2::kConcat:
        case Fun2::kSubstrFrom:
        case Fun2::kSubstrLen:
          expect = bat::ColType::kItem;
          tout = bat::ColType::kItem;
          break;
        default:
          expect = bat::ColType::kItem;
          tout = bat::ColType::kBool;
          break;
      }
      if (t1 != expect || t2 != expect) {
        return Fail(op, "fun2 input type mismatch");
      }
      if (cs[0]->Has(op.out)) {
        return Fail(op, "fun2 output " + Quote(op.out) + " already exists");
      }
      Schema s = Extend(*cs[0], 1);
      s.cols.emplace_back(op.out, tout);
      return s;
    }
    case OpKind::kAggr: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_ASSIGN_OR_RETURN(bat::ColType tp, ColOf(op, *cs[0], op.col));
      if (tp != bat::ColType::kInt) {
        return Fail(op, "aggregate partition column must be int");
      }
      if (op.col2 != bat::kNoCol) {
        PF_ASSIGN_OR_RETURN(bat::ColType tv, ColOf(op, *cs[0], op.col2));
        if (tv != bat::ColType::kItem) {
          return Fail(op, "aggregate value column must be item");
        }
      } else if (op.agg != bat::AggKind::kCount) {
        return Fail(op, "only count may omit the value column");
      }
      Schema s;
      s.cols = {{op.col, bat::ColType::kInt}, {op.out, bat::ColType::kItem}};
      return s;
    }
    case OpKind::kSerialize: {
      PF_RETURN_NOT_OK(require_children(1));
      PF_RETURN_NOT_OK(RequireSeqCols(op, *cs[0], /*need_pos=*/true));
      return *cs[0];
    }
  }
  return Fail(op, "unknown operator kind");
}

}  // namespace

void SchemaMap::Insert(const Op* op, Schema s) {
  if (index_.Insert(op, static_cast<uint32_t>(schemas_.size()))) {
    ops_.push_back(op);
    schemas_.push_back(std::move(s));
  }
}

Result<Schema> InferSchemas(const OpPtr& root, SchemaMap* schemas) {
  SchemaMap local;
  SchemaMap& memo = schemas ? *schemas : local;
  // Iterative post-order (deep unoptimized plans) that never descends
  // into a memoized node. A node is pushed only while unmemoized and is
  // memoized before any frame below it resumes, so none is pushed twice.
  struct Frame {
    const Op* op;
    size_t next_child;
  };
  std::vector<Frame> stack;
  if (!memo.Contains(root.get())) stack.push_back({root.get(), 0});
  std::vector<const Schema*> cs;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child < f.op->children.size()) {
      const Op* child = f.op->children[f.next_child++].get();
      if (!memo.Contains(child)) stack.push_back({child, 0});
      continue;
    }
    const Op* op = f.op;
    stack.pop_back();
    cs.clear();
    for (const auto& c : op->children) cs.push_back(&memo.at(c.get()));
    PF_ASSIGN_OR_RETURN(Schema s, InferOne(*op, cs));
    memo.Insert(op, std::move(s));
  }
  return memo.at(root.get());
}

void RetainSchemas(const PlanNumbering& plan, SchemaMap* memo) {
  size_t kept = 0;
  for (size_t i = 0; i < memo->ops_.size(); ++i) {
    if (!plan.Contains(memo->ops_[i])) continue;
    if (kept != i) {
      memo->ops_[kept] = memo->ops_[i];
      memo->schemas_[kept] = std::move(memo->schemas_[i]);
    }
    ++kept;
  }
  memo->ops_.resize(kept);
  memo->schemas_.resize(kept);
  memo->index_.Clear();
  for (size_t i = 0; i < kept; ++i) {
    memo->index_.Insert(memo->ops_[i], static_cast<uint32_t>(i));
  }
}

Status ValidatePlan(const OpPtr& root) {
  return InferSchemas(root).status();
}

}  // namespace pathfinder::algebra
