#ifndef PATHFINDER_ALGEBRA_HASH_H_
#define PATHFINDER_ALGEBRA_HASH_H_

#include <cstdint>
#include <vector>

#include "algebra/op.h"

namespace pathfinder::algebra {

/// Structural hashing and equality over algebra plan DAGs.
///
/// Two subtrees hash (and compare) equal exactly when they denote the
/// same computation: same operator kinds, same parameters, same child
/// structure. Node identity (`Op::id`, pointers) and execution
/// annotations (cache marks) never participate, so the hash of a
/// subtree is stable across plans, queries and rebuilds of the same
/// query — it can key cross-query caches. Column parameters
/// hash by ColId, which the process-wide dictionary keeps fixed.
///
/// Canonical ordering folds parameter orderings that provably cannot
/// change the operator's result:
///  * commutative Fun2 operators (+, *, eq, ne, and, or) treat
///    (col, col2) as an unordered pair,
///  * Distinct / Difference key lists are compared as sets,
///  * RowNum partition key lists are compared as sets (grouping is
///    order-insensitive; *order* keys stay ordered).
/// Constant cells (LitTable rows, Attach values) compare by Item
/// representation equality — exact bits, so e.g. 1 and 1.0 stay
/// distinct.

/// Hash of one node's local parameters (children excluded).
uint64_t LocalParamsHash(const Op& op);

/// Equality of two nodes' local parameters under canonical ordering.
bool LocalParamsEqual(const Op& a, const Op& b);

/// Combine a node's local hash with its children's subtree hashes.
uint64_t CombineChildHash(uint64_t h, uint64_t child_hash);

/// Subtree hash of every node of `plan`, indexed by node number
/// (shared nodes hashed once).
std::vector<uint64_t> StructuralHashes(const PlanNumbering& plan);

/// Subtree hash of `root` alone.
uint64_t StructuralHash(const OpPtr& root);

/// Deep structural equality of two subtrees. DAG-aware: already-proven
/// pairs are memoized, so comparing heavily shared plans stays linear.
bool StructurallyEqual(const Op& a, const Op& b);

/// Rough retained-bytes estimate of the DAG under `root` (node structs
/// plus their vector payloads) for cache budget accounting.
size_t ApproxPlanBytes(const OpPtr& root);

}  // namespace pathfinder::algebra

#endif  // PATHFINDER_ALGEBRA_HASH_H_
