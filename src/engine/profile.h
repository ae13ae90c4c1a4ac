#ifndef PATHFINDER_ENGINE_PROFILE_H_
#define PATHFINDER_ENGINE_PROFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/op.h"
#include "base/string_pool.h"

namespace pathfinder::engine {

/// One node of the per-operator execution profile tree. The tree
/// mirrors the executed plan DAG exactly as the plan printer renders
/// it: the first visit of a shared subplan carries its children,
/// repeat visits are emitted as `shared_ref` leaves (cf. the "^id"
/// references of algebra::PlanToText).
///
/// Row/byte/morsel fields describe the operator's materialized output;
/// every operator materializes one.
struct OperatorProfile {
  int op_id = 0;                       ///< algebra::Op::id
  algebra::OpKind kind = algebra::OpKind::kSerialize;
  std::string label;                   ///< algebra::OpLabel rendering
  bool shared_ref = false;  ///< repeat visit of a shared subplan
  /// Result served from the cross-query subplan cache: the subtree was
  /// not executed, so the node is rendered as a leaf (no children) and
  /// wall_ns only covers the cache lookup.
  bool cached = false;
  int64_t wall_ns = 0;   ///< evaluation wall time
  int64_t in_rows = 0;   ///< sum of child output rows
  int64_t out_rows = 0;  ///< materialized output rows
  int64_t out_bytes = 0;  ///< output column payload bytes
  int64_t morsels = 0;   ///< morsel count of the evaluation
  std::vector<OperatorProfile> children;
};

using OperatorProfilePtr = std::unique_ptr<OperatorProfile>;

/// Raw per-Op measurements the executor records while a query runs,
/// one per node number of the executed plan (a node it never reached
/// keeps the defaults); BuildProfileTree folds them into the
/// plan-shaped tree above.
struct OpProfileRec {
  int64_t wall_ns = 0;
  int64_t out_rows = 0;
  int64_t out_bytes = 0;
  int64_t morsels = 0;
  bool cached = false;  ///< served from the subplan-result cache
};

/// Fold the recorded measurements (`recs[i]` for node number i of
/// `plan`) into a profile tree shaped like the plan under its root, the
/// last node of the numbering (children before parents exactly as
/// executed).
OperatorProfilePtr BuildProfileTree(const algebra::PlanNumbering& plan,
                                    const std::vector<OpProfileRec>& recs,
                                    const StringPool& pool);

/// Machine-readable rendering of a profile tree: one JSON object per
/// operator with "children" nested arrays (schema documented in
/// DESIGN.md "Operator profiling").
std::string ProfileToJson(const OperatorProfile& p);

/// Monotonic nanosecond timestamp for profile collection. Every call
/// bumps a process-wide counter so tests can prove the profiling-off
/// hot path performs no timer calls at all.
int64_t ProfileNowNs();

/// Number of ProfileNowNs invocations process-wide.
int64_t ProfileTimerCalls();

/// Process-wide default for profile collection: the PF_PROFILE
/// environment variable, read once. Off unless set to a value other
/// than "0" (profiling is opt-in; the executor's hot path stays
/// timer-free by default).
bool ProfileDefault();

}  // namespace pathfinder::engine

#endif  // PATHFINDER_ENGINE_PROFILE_H_
