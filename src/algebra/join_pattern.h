#ifndef PATHFINDER_ALGEBRA_JOIN_PATTERN_H_
#define PATHFINDER_ALGEBRA_JOIN_PATTERN_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/op.h"

namespace pathfinder::algebra {

// ---------------------------------------------------------------------
// Key (uniqueness) inference.

/// Callback: does a staircase step with (axis, test) yield at most one
/// result node per *context node*, for every document the plan could
/// read? Supplied by the opt layer from shred-time DocStats (e.g.
/// `child::profile` when no element in any registered document has two
/// profile children; `attribute::income` when no owner carries the
/// name twice). Null = unknown, conservative.
using StepUniqueness =
    std::function<bool(accel::Axis, const accel::NodeTest&)>;

/// Bottom-up inference of duplicate-free column sets ("keys") per plan
/// node. A key {c1..ck} of op means no two output rows agree on all of
/// c1..ck — which is exactly the license to drop a `distinct` over a
/// superset of those columns, and to prove joins non-expanding.
class KeyAnalysis {
 public:
  /// Does `op` have an inferred key that is a subset of `cols`?
  bool CoversKey(const Op* op, const std::vector<std::string>& cols) const;

  /// Is {col} (alone) a key of `op`?
  bool IsUniqueCol(const Op* op, const std::string& col) const {
    return CoversKey(op, {col});
  }

  const std::vector<std::vector<std::string>>* KeysOf(const Op* op) const {
    auto it = keys_.find(op);
    return it == keys_.end() ? nullptr : &it->second;
  }

  /// May the op's output item columns contain *constructed* nodes
  /// (element/text/attribute constructors anywhere below)? Stats-backed
  /// step facts only hold for store documents, so they require this to
  /// be false.
  bool StoreNodesOnly(const Op* op) const {
    auto it = store_only_.find(op);
    return it != store_only_.end() && it->second;
  }

 private:
  friend KeyAnalysis InferKeys(const OpPtr&, const StepUniqueness&);

  void AddKey(const Op* op, std::vector<std::string> key);

  // Sorted, minimal (no key contains another), capped per op.
  std::unordered_map<const Op*, std::vector<std::vector<std::string>>> keys_;
  std::unordered_map<const Op*, bool> store_only_;
};

/// Run the inference over the whole DAG (children before parents).
/// `step_unique` may be null (structural facts only).
KeyAnalysis InferKeys(const OpPtr& root, const StepUniqueness& step_unique);

}  // namespace pathfinder::algebra

#endif  // PATHFINDER_ALGEBRA_JOIN_PATTERN_H_
