#ifndef PATHFINDER_ALGEBRA_SCHEMA_H_
#define PATHFINDER_ALGEBRA_SCHEMA_H_

#include <string>
#include <utility>
#include <vector>

#include "algebra/op.h"
#include "base/result.h"

namespace pathfinder::algebra {

/// Inferred relational schema of an operator's output.
struct Schema {
  std::vector<std::pair<ColId, bat::ColType>> cols;

  int Find(ColId name) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].first == name) return static_cast<int>(i);
    }
    return -1;
  }
  bool Has(ColId name) const { return Find(name) >= 0; }

  std::string ToString() const;
};

/// Schema memo: inferred schemas keyed by node address, kept beside
/// the plan rather than on `Op`. The schemas live in one vector and a
/// flat open-addressing table maps each node to its slot, so the memo
/// allocates per growth, not per node.
class SchemaMap {
 public:
  /// The memoized schema of `op`, or null.
  const Schema* Find(const Op* op) const {
    uint32_t i = index_.Find(op);
    return i == PtrIndex::kAbsent ? nullptr : &schemas_[i];
  }
  bool Contains(const Op* op) const { return Find(op) != nullptr; }
  /// The memoized schema of `op`, which must be present.
  const Schema& at(const Op* op) const { return schemas_[index_.Find(op)]; }
  void Insert(const Op* op, Schema s);
  size_t size() const { return schemas_.size(); }

 private:
  friend void RetainSchemas(const PlanNumbering& plan, SchemaMap* memo);

  PtrIndex index_;
  std::vector<const Op*> ops_;  // parallel to schemas_
  std::vector<Schema> schemas_;
};

/// Infer (and thereby validate) the schema of every node in the DAG.
///
/// Fails with kInternal on any structural plan bug: unknown columns,
/// type mismatches, name clashes across join inputs, wrong child
/// arity, etc. The compiler runs this after every compilation and the
/// optimizer before handing out a plan, so malformed plans are caught
/// before execution.
///
/// With a memo, nodes already in it are trusted: the walk stops there
/// and never re-infers them or anything below them, so it infers each
/// node not yet memoized exactly once and adds exactly those. Entries
/// are keyed by address, so a memo kept across plan rewrites must
/// never hold a freed node (see RetainSchemas).
Result<Schema> InferSchemas(const OpPtr& root, SchemaMap* schemas = nullptr);

/// Cut `memo` down to the nodes of `plan`. A caller that keeps one memo
/// across rewrites calls this at the start of each round, and keeps
/// every memoized node alive until then: a freed node's address may be
/// reused by a new node, which would inherit the stale entry.
void RetainSchemas(const PlanNumbering& plan, SchemaMap* memo);

/// Convenience: validate the whole plan, discarding schemas.
Status ValidatePlan(const OpPtr& root);

}  // namespace pathfinder::algebra

#endif  // PATHFINDER_ALGEBRA_SCHEMA_H_
