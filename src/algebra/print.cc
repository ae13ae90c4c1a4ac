#include "algebra/print.h"

#include <sstream>

#include "bat/item_ops.h"

namespace pathfinder::algebra {

namespace {

void RenderItem(std::ostream& os, const Item& it, const StringPool& pool) {
  switch (it.kind) {
    case ItemKind::kInt:
      os << it.AsInt();
      break;
    case ItemKind::kDbl:
      os << it.AsDbl();
      break;
    case ItemKind::kStr:
    case ItemKind::kUntyped:
      os << '"' << pool.Get(it.AsStr()) << '"';
      break;
    case ItemKind::kBool:
      os << (it.AsBool() ? "true" : "false");
      break;
    case ItemKind::kNode:
    case ItemKind::kAttr:
      os << "node(" << it.NodeFrag() << "," << it.NodePre() << ")";
      break;
  }
}

std::string JoinNames(const std::vector<ColId>& v) {
  std::string s;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += bat::ColName(v[i]);
  }
  return s;
}

}  // namespace

std::string OpLabel(const Op& op, const StringPool& pool) {
  std::ostringstream os;
  os << OpKindName(op.kind);
  switch (op.kind) {
    case OpKind::kLitTable: {
      os << " (" << JoinNames(op.names) << ")";
      if (op.rows.empty()) {
        os << " empty";
      } else if (op.rows.size() <= 2) {
        for (const auto& row : op.rows) {
          os << " [";
          for (size_t i = 0; i < row.size(); ++i) {
            if (i) os << ",";
            RenderItem(os, row[i], pool);
          }
          os << "]";
        }
      } else {
        os << " " << op.rows.size() << " rows";
      }
      break;
    }
    case OpKind::kProject: {
      os << " ";
      for (size_t i = 0; i < op.proj.size(); ++i) {
        if (i) os << ",";
        if (op.proj[i].first == op.proj[i].second) {
          os << bat::ColName(op.proj[i].first);
        } else {
          os << bat::ColName(op.proj[i].first) << ":"
             << bat::ColName(op.proj[i].second);
        }
      }
      break;
    }
    case OpKind::kAttach: {
      os << " " << bat::ColName(op.out) << "=";
      RenderItem(os, op.attach_val, pool);
      break;
    }
    case OpKind::kSelect:
      os << " " << bat::ColName(op.col);
      break;
    case OpKind::kDifference:
    case OpKind::kDistinct:
      if (!op.keys.empty()) os << " on " << JoinNames(op.keys);
      break;
    case OpKind::kEquiJoin:
      os << " " << bat::ColName(op.col) << "=" << bat::ColName(op.col2);
      break;
    case OpKind::kThetaJoin: {
      const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
      os << " " << bat::ColName(op.col) << ops[static_cast<int>(op.cmp)]
         << bat::ColName(op.col2);
      break;
    }
    case OpKind::kRowNum:
      os << " " << bat::ColName(op.out) << ":<" << JoinNames(op.part) << ">";
      if (!op.order.empty()) os << "/" << JoinNames(op.order);
      break;
    case OpKind::kStep:
      os << " " << accel::AxisName(op.axis)
         << "::" << op.test.ToString(pool);
      break;
    case OpKind::kPathScan:
      for (const PathStep& s : op.path) {
        os << " /" << accel::AxisName(s.axis)
           << "::" << s.test.ToString(pool);
      }
      break;
    case OpKind::kFun1:
      os << " " << bat::ColName(op.out) << "=" << Fun1Name(op.fun1) << "("
         << bat::ColName(op.col) << ")";
      break;
    case OpKind::kFun2:
      os << " " << bat::ColName(op.out) << "=(" << bat::ColName(op.col)
         << " " << Fun2Name(op.fun2) << " " << bat::ColName(op.col2) << ")";
      break;
    case OpKind::kAggr: {
      const char* aggs[] = {"count", "sum", "avg", "max", "min"};
      os << " " << bat::ColName(op.out) << "="
         << aggs[static_cast<int>(op.agg)] << "(" << bat::ColName(op.col2)
         << ")/" << bat::ColName(op.col);
      break;
    }
    default:
      break;
  }
  if (op.pipe_frag >= 0) {
    os << " |pipe" << op.pipe_frag << (op.pipe_tail ? "!" : "");
  }
  return os.str();
}

namespace {

void PrintText(const OpPtr& op, const StringPool& pool, int indent,
               PtrIndex* printed, std::ostream& os,
               const OpAnnotator* annot) {
  for (int i = 0; i < indent; ++i) os << "  ";
  if (!printed->Insert(op.get(), 0)) {
    os << "^" << op->id << "\n";
    return;
  }
  os << "#" << op->id << " " << OpLabel(*op, pool);
  if (annot != nullptr) {
    std::string a = (*annot)(*op);
    if (!a.empty()) os << "  " << a;
  }
  os << "\n";
  for (const auto& c : op->children) {
    PrintText(c, pool, indent + 1, printed, os, annot);
  }
}

std::string DotEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string PlanToText(const OpPtr& root, const StringPool& pool) {
  std::ostringstream os;
  PtrIndex printed;
  PrintText(root, pool, 0, &printed, os, nullptr);
  return os.str();
}

std::string PlanToTextAnnotated(const OpPtr& root, const StringPool& pool,
                                const OpAnnotator& annot) {
  std::ostringstream os;
  PtrIndex printed;
  PrintText(root, pool, 0, &printed, os, &annot);
  return os.str();
}

std::string PlanToDot(const OpPtr& root, const StringPool& pool) {
  std::ostringstream os;
  os << "digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n";
  for (Op* op : TopoOrder(root)) {
    os << "  n" << op->id << " [label=\"" << DotEscape(OpLabel(*op, pool))
       << "\"];\n";
    for (const auto& c : op->children) {
      os << "  n" << op->id << " -> n" << c->id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace pathfinder::algebra
