#ifndef PATHFINDER_ALGEBRA_JOIN_PATTERN_H_
#define PATHFINDER_ALGEBRA_JOIN_PATTERN_H_

#include <functional>
#include <vector>

#include "algebra/op.h"

namespace pathfinder::algebra {

// ---------------------------------------------------------------------
// Key (uniqueness) inference.

/// Callback: does a staircase step with (axis, test) yield at most one
/// result node per *context node*, for every document the plan could
/// read? Supplied by the opt layer from the fan-outs of the documents'
/// path summaries (e.g. `child::profile` when no element in any
/// registered document has two profile children; `attribute::income`
/// when no owner carries the name twice). Null = unknown, conservative.
using StepUniqueness =
    std::function<bool(accel::Axis, const accel::NodeTest&)>;

/// Bottom-up inference of duplicate-free column sets ("keys") per plan
/// node. A key {c1..ck} of op means no two output rows agree on all of
/// c1..ck — which is exactly the license to drop a `distinct` over a
/// superset of those columns, and to prove joins non-expanding.
///
/// Keys are bitsets over the plan's local column numbers
/// (bat::PlanColumns), kept per node number of the plan the analysis
/// ran on, all in one array.
class KeyAnalysis {
 public:
  /// Does `op` have an inferred key that is a subset of `cols`?
  bool CoversKey(const Op* op, const std::vector<ColId>& cols) const {
    return CoversKey(op, cols.data(), cols.size());
  }

  /// Is {col} (alone) a key of `op`?
  bool IsUniqueCol(const Op* op, ColId col) const {
    return CoversKey(op, &col, 1);
  }

 private:
  friend KeyAnalysis InferKeys(const OpPtr&, const StepUniqueness&);

  bool CoversKey(const Op* op, const ColId* cols, size_t n) const;
  const uint64_t* Key(size_t k) const { return &key_bits_[k * words_]; }
  /// Add `key` (words_ wide) to node `node`, the node being inferred.
  void AddKey(size_t node, const uint64_t* key);

  PlanNumbering plan_;
  bat::PlanColumns cols_;
  size_t words_ = 0;
  // Node i's keys are keys first_[i] .. first_[i] + count_[i] - 1, each
  // words_ wide in key_bits_: sorted by insertion, minimal (no key
  // contains another), capped per node.
  std::vector<uint64_t> key_bits_;
  std::vector<uint32_t> first_;
  std::vector<uint8_t> count_;
  // Per node: its item columns hold store nodes only (no constructor
  // below). Step facts from the path summaries require it.
  std::vector<uint8_t> store_only_;
};

/// Run the inference over the whole DAG (children before parents).
/// `step_unique` may be null (structural facts only).
KeyAnalysis InferKeys(const OpPtr& root, const StepUniqueness& step_unique);

}  // namespace pathfinder::algebra

#endif  // PATHFINDER_ALGEBRA_JOIN_PATTERN_H_
