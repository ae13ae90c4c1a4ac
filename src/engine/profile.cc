#include "engine/profile.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "algebra/print.h"

namespace pathfinder::engine {

namespace {

std::atomic<int64_t> g_timer_calls{0};

void JsonEscape(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void Build(const algebra::PlanNumbering& plan, const algebra::Op* op,
           const std::vector<OpProfileRec>& recs, const StringPool& pool,
           std::vector<bool>* seen, OperatorProfile* out) {
  size_t i = plan.IndexOf(op);
  out->op_id = op->id;
  out->kind = op->kind;
  out->label = algebra::OpLabel(*op, pool);
  out->pipe_frag = op->pipe_frag;
  const OpProfileRec& r = recs[i];
  out->fused = r.fused;
  out->cached = r.cached;
  out->wall_ns = r.wall_ns;
  out->out_rows = r.out_rows;
  out->out_bytes = r.out_bytes;
  out->morsels = r.morsels;
  // Input rows = sum of child output rows; unknown (-1) as soon as one
  // child never materialized (fused interior of a fragment).
  out->in_rows = 0;
  for (const auto& c : op->children) {
    int64_t rows = recs[plan.IndexOf(c.get())].out_rows;
    if (rows < 0) {
      out->in_rows = -1;
      break;
    }
    out->in_rows += rows;
  }
  if ((*seen)[i]) {
    out->shared_ref = true;
    return;  // shared subplan: children rendered at the first visit
  }
  (*seen)[i] = true;
  if (out->cached) {
    // The subtree below a cache hit never ran; render the hit as a leaf.
    return;
  }
  out->children.resize(op->children.size());
  for (size_t k = 0; k < op->children.size(); ++k) {
    Build(plan, op->children[k].get(), recs, pool, seen, &out->children[k]);
  }
}

void ToJson(const OperatorProfile& p, std::string* out) {
  *out += "{\"op\": ";
  *out += std::to_string(p.op_id);
  *out += ", \"kind\": \"";
  *out += algebra::OpKindName(p.kind);
  *out += "\", \"label\": \"";
  JsonEscape(p.label, out);
  *out += "\", \"frag\": ";
  *out += std::to_string(p.pipe_frag);
  *out += ", \"fused\": ";
  *out += p.fused ? "true" : "false";
  *out += ", \"shared_ref\": ";
  *out += p.shared_ref ? "true" : "false";
  *out += ", \"cached\": ";
  *out += p.cached ? "true" : "false";
  *out += ", \"wall_ns\": ";
  *out += std::to_string(p.wall_ns);
  *out += ", \"in_rows\": ";
  *out += std::to_string(p.in_rows);
  *out += ", \"out_rows\": ";
  *out += std::to_string(p.out_rows);
  *out += ", \"out_bytes\": ";
  *out += std::to_string(p.out_bytes);
  *out += ", \"morsels\": ";
  *out += std::to_string(p.morsels);
  *out += ", \"children\": [";
  for (size_t i = 0; i < p.children.size(); ++i) {
    if (i) *out += ", ";
    ToJson(p.children[i], out);
  }
  *out += "]}";
}

}  // namespace

OperatorProfilePtr BuildProfileTree(const algebra::PlanNumbering& plan,
                                    const std::vector<OpProfileRec>& recs,
                                    const StringPool& pool) {
  auto tree = std::make_unique<OperatorProfile>();
  std::vector<bool> seen(plan.nodes.size(), false);
  Build(plan, plan.nodes.back(), recs, pool, &seen, tree.get());
  return tree;
}

std::string ProfileToJson(const OperatorProfile& p) {
  std::string out;
  ToJson(p, &out);
  return out;
}

int64_t ProfileNowNs() {
  g_timer_calls.fetch_add(1, std::memory_order_relaxed);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProfileTimerCalls() {
  return g_timer_calls.load(std::memory_order_relaxed);
}

bool ProfileDefault() {
  static const bool on = [] {
    const char* e = std::getenv("PF_PROFILE");
    return e != nullptr && std::string_view(e) != "0";
  }();
  return on;
}

}  // namespace pathfinder::engine
