#include "algebra/op.h"

#include <atomic>

namespace pathfinder::algebra {

namespace {

std::atomic<int> g_next_id{1};

OpPtr NewOp(OpKind kind, std::vector<OpPtr> children) {
  auto op = std::make_shared<Op>();
  op->kind = kind;
  op->children = std::move(children);
  op->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  return op;
}

}  // namespace

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kLitTable:
      return "table";
    case OpKind::kProject:
      return "project";
    case OpKind::kAttach:
      return "attach";
    case OpKind::kSelect:
      return "select";
    case OpKind::kDisjointUnion:
      return "union";
    case OpKind::kDifference:
      return "difference";
    case OpKind::kDistinct:
      return "distinct";
    case OpKind::kEquiJoin:
      return "eqjoin";
    case OpKind::kThetaJoin:
      return "thetajoin";
    case OpKind::kCross:
      return "cross";
    case OpKind::kRowNum:
      return "rownum";
    case OpKind::kStep:
      return "scjoin";
    case OpKind::kDocRoot:
      return "doc";
    case OpKind::kElemConstr:
      return "element";
    case OpKind::kTextConstr:
      return "text";
    case OpKind::kFun1:
      return "fun1";
    case OpKind::kFun2:
      return "fun2";
    case OpKind::kAggr:
      return "aggr";
    case OpKind::kStrJoin:
      return "string-join";
    case OpKind::kAttrConstr:
      return "attribute";
    case OpKind::kPathScan:
      return "pathscan";
    case OpKind::kSerialize:
      return "serialize";
  }
  return "?";
}

bool IsPipelineMapOp(OpKind k) {
  switch (k) {
    case OpKind::kProject:
    case OpKind::kAttach:
    case OpKind::kSelect:
    case OpKind::kFun1:
    case OpKind::kFun2:
      return true;
    default:
      return false;
  }
}

bool IsPipelineJoinOp(OpKind k) {
  return k == OpKind::kEquiJoin || k == OpKind::kThetaJoin;
}

const char* Fun1Name(Fun1 f) {
  switch (f) {
    case Fun1::kNot:
      return "not";
    case Fun1::kBoolToItem:
      return "bool2item";
    case Fun1::kItemToBool:
      return "item2bool";
    case Fun1::kData:
      return "data";
    case Fun1::kStringFn:
      return "string";
    case Fun1::kNumberFn:
      return "number";
    case Fun1::kNeg:
      return "neg";
    case Fun1::kNameFn:
      return "name";
    case Fun1::kStrLen:
      return "string-length";
    case Fun1::kIntToItem:
      return "int2item";
    case Fun1::kRootNode:
      return "root";
    case Fun1::kIsElement:
      return "is-element";
    case Fun1::kIsAttribute:
      return "is-attribute";
    case Fun1::kIsText:
      return "is-text";
    case Fun1::kIsNode:
      return "is-node";
    case Fun1::kIsInt:
      return "is-int";
    case Fun1::kIsDouble:
      return "is-double";
    case Fun1::kIsString:
      return "is-string";
    case Fun1::kIsBool:
      return "is-bool";
  }
  return "?";
}

const char* Fun2Name(Fun2 f) {
  switch (f) {
    case Fun2::kAdd:
      return "+";
    case Fun2::kSub:
      return "-";
    case Fun2::kMul:
      return "*";
    case Fun2::kDiv:
      return "div";
    case Fun2::kIdiv:
      return "idiv";
    case Fun2::kMod:
      return "mod";
    case Fun2::kCmpEq:
      return "eq";
    case Fun2::kCmpNe:
      return "ne";
    case Fun2::kCmpLt:
      return "lt";
    case Fun2::kCmpLe:
      return "le";
    case Fun2::kCmpGt:
      return "gt";
    case Fun2::kCmpGe:
      return "ge";
    case Fun2::kIs:
      return "is";
    case Fun2::kBefore:
      return "<<";
    case Fun2::kAfter:
      return ">>";
    case Fun2::kContains:
      return "contains";
    case Fun2::kStartsWith:
      return "starts-with";
    case Fun2::kConcat:
      return "concat";
    case Fun2::kSubstrFrom:
      return "substring-from";
    case Fun2::kSubstrLen:
      return "substring-len";
    case Fun2::kAnd:
      return "and";
    case Fun2::kOr:
      return "or";
  }
  return "?";
}

size_t CountOps(const OpPtr& root) { return NumberPlan(root).nodes.size(); }

std::vector<Op*> TopoOrder(const OpPtr& root) {
  return NumberPlan(root).nodes;
}

PlanNumbering NumberPlan(const OpPtr& root) {
  PlanNumbering plan;
  plan.nodes.reserve(64);
  plan.index.Reserve(64);
  // Iterative post-order to survive deep (unoptimized) plans. A node is
  // pushed only while unnumbered and is numbered before any frame below
  // it resumes, so in a DAG no node is pushed twice.
  struct Frame {
    Op* op;
    size_t next_child;
  };
  std::vector<Frame> stack;
  if (root) stack.push_back({root.get(), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child < f.op->children.size()) {
      Op* child = f.op->children[f.next_child++].get();
      if (!plan.Contains(child)) stack.push_back({child, 0});
      continue;
    }
    plan.index.Insert(f.op, static_cast<uint32_t>(plan.nodes.size()));
    plan.nodes.push_back(f.op);
    stack.pop_back();
  }
  return plan;
}

std::vector<const OpPtr*> NodeOwners(const PlanNumbering& plan,
                                     const OpPtr& root) {
  std::vector<const OpPtr*> owner(plan.nodes.size(), nullptr);
  for (const Op* op : plan.nodes) {
    for (const OpPtr& c : op->children) owner[plan.IndexOf(c.get())] = &c;
  }
  if (!owner.empty()) owner.back() = &root;
  return owner;
}

void AddPlanColumns(const PlanNumbering& plan, bat::PlanColumns* cols) {
  for (ColId c : {bat::kIter, bat::kPos, bat::kItem}) cols->Add(c);
  auto add = [cols](ColId c) {
    if (c != bat::kNoCol) cols->Add(c);
  };
  for (const Op* op : plan.nodes) {
    for (const auto& [nw, old] : op->proj) {
      add(nw);
      add(old);
    }
    add(op->col);
    add(op->col2);
    add(op->out);
    for (ColId c : op->part) add(c);
    for (ColId c : op->order) add(c);
    for (ColId c : op->keys) add(c);
    for (ColId c : op->names) add(c);
  }
}

OpPtr WithRebuiltChildren(const PlanNumbering& plan, const OpPtr& op,
                          const std::vector<OpPtr>& rebuilt) {
  bool kid_changed = false;
  for (const auto& c : op->children) {
    kid_changed |= rebuilt[plan.IndexOf(c.get())].get() != c.get();
  }
  if (!kid_changed) return op;
  auto node = std::make_shared<Op>(*op);
  for (auto& c : node->children) c = rebuilt[plan.IndexOf(c.get())];
  return node;
}

OpPtr LitTable(std::vector<ColId> names,
               std::vector<bat::ColType> types,
               std::vector<std::vector<Item>> rows) {
  auto op = NewOp(OpKind::kLitTable, {});
  op->names = std::move(names);
  op->types = std::move(types);
  op->rows = std::move(rows);
  return op;
}

OpPtr EmptySeq() {
  return LitTable({bat::kIter, bat::kPos, bat::kItem},
                  {bat::ColType::kInt, bat::ColType::kInt,
                   bat::ColType::kItem},
                  {});
}

OpPtr Project(OpPtr child, std::vector<std::pair<ColId, ColId>> proj) {
  auto op = NewOp(OpKind::kProject, {std::move(child)});
  op->proj = std::move(proj);
  return op;
}

OpPtr Attach(OpPtr child, ColId name, bat::ColType type, Item value) {
  auto op = NewOp(OpKind::kAttach, {std::move(child)});
  op->out = name;
  op->types = {type};
  op->attach_val = value;
  return op;
}

OpPtr Select(OpPtr child, ColId bool_col) {
  auto op = NewOp(OpKind::kSelect, {std::move(child)});
  op->col = bool_col;
  return op;
}

OpPtr DisjointUnion(OpPtr a, OpPtr b) {
  return NewOp(OpKind::kDisjointUnion, {std::move(a), std::move(b)});
}

OpPtr Difference(OpPtr a, OpPtr b, std::vector<ColId> keys) {
  auto op = NewOp(OpKind::kDifference, {std::move(a), std::move(b)});
  op->keys = std::move(keys);
  return op;
}

OpPtr Distinct(OpPtr child, std::vector<ColId> keys) {
  auto op = NewOp(OpKind::kDistinct, {std::move(child)});
  op->keys = std::move(keys);
  return op;
}

OpPtr EquiJoin(OpPtr a, OpPtr b, ColId acol, ColId bcol) {
  auto op = NewOp(OpKind::kEquiJoin, {std::move(a), std::move(b)});
  op->col = acol;
  op->col2 = bcol;
  return op;
}

OpPtr ThetaJoin(OpPtr a, OpPtr b, ColId acol, ColId bcol, bat::CmpOp cmp) {
  auto op = NewOp(OpKind::kThetaJoin, {std::move(a), std::move(b)});
  op->col = acol;
  op->col2 = bcol;
  op->cmp = cmp;
  return op;
}

OpPtr Cross(OpPtr a, OpPtr b) {
  return NewOp(OpKind::kCross, {std::move(a), std::move(b)});
}

OpPtr RowNum(OpPtr child, ColId out, std::vector<ColId> part,
             std::vector<ColId> order, std::vector<uint8_t> order_desc) {
  auto op = NewOp(OpKind::kRowNum, {std::move(child)});
  op->out = out;
  op->part = std::move(part);
  op->order = std::move(order);
  op->order_desc = std::move(order_desc);
  return op;
}

OpPtr Step(OpPtr child, accel::Axis axis, accel::NodeTest test) {
  auto op = NewOp(OpKind::kStep, {std::move(child)});
  op->axis = axis;
  op->test = test;
  return op;
}

OpPtr DocRoot(OpPtr child) { return NewOp(OpKind::kDocRoot, {std::move(child)}); }

OpPtr PathScan(OpPtr child, std::vector<PathStep> path) {
  auto op = NewOp(OpKind::kPathScan, {std::move(child)});
  op->path = std::move(path);
  return op;
}

OpPtr ElemConstr(OpPtr name, OpPtr content) {
  return NewOp(OpKind::kElemConstr, {std::move(name), std::move(content)});
}

OpPtr TextConstr(OpPtr child) {
  return NewOp(OpKind::kTextConstr, {std::move(child)});
}

OpPtr AttrConstr(OpPtr content, StrId name) {
  auto op = NewOp(OpKind::kAttrConstr, {std::move(content)});
  op->attr_name = name;
  return op;
}

OpPtr StrJoin(OpPtr content, OpPtr sep) {
  return NewOp(OpKind::kStrJoin, {std::move(content), std::move(sep)});
}

OpPtr MapFun1(OpPtr child, Fun1 f, ColId in, ColId out) {
  auto op = NewOp(OpKind::kFun1, {std::move(child)});
  op->fun1 = f;
  op->col = in;
  op->out = out;
  return op;
}

OpPtr MapFun2(OpPtr child, Fun2 f, ColId in1, ColId in2, ColId out) {
  auto op = NewOp(OpKind::kFun2, {std::move(child)});
  op->fun2 = f;
  op->col = in1;
  op->col2 = in2;
  op->out = out;
  return op;
}

OpPtr Aggr(OpPtr child, bat::AggKind agg, ColId part_col, ColId val_col,
           ColId out) {
  auto op = NewOp(OpKind::kAggr, {std::move(child)});
  op->agg = agg;
  op->col = part_col;
  op->col2 = val_col;
  op->out = out;
  return op;
}

OpPtr Serialize(OpPtr child) {
  return NewOp(OpKind::kSerialize, {std::move(child)});
}

}  // namespace pathfinder::algebra
