#ifndef PATHFINDER_OPT_JOIN_GRAPH_H_
#define PATHFINDER_OPT_JOIN_GRAPH_H_

#include "algebra/join_pattern.h"
#include "algebra/op.h"
#include "algebra/schema.h"
#include "base/result.h"

namespace pathfinder::xml {
class Database;
}

namespace pathfinder::opt {

/// Counters of the join-graph pass (folded into OptimizeStats).
struct JoinOptStats {
  /// Select predicates pushed below joins onto their source leaf.
  int selects_pushed = 0;
  /// `distinct` operators removed because key inference proved their
  /// input duplicate-free.
  int key_distincts_removed = 0;
};

/// Build the step-uniqueness oracle over every document currently
/// registered in `db` (see algebra::StepUniqueness): true only when the
/// path-summary fan-outs of *all* documents prove the (axis, test) step
/// yields at most one node per context node (false for a document
/// without a summary). Read whatever `path_summary` is set to. Null
/// database → null callback (key inference falls back to structural
/// facts).
algebra::StepUniqueness MakeStepUniqueness(const xml::Database* db);

/// The join-graph pass, two rewrites over the loop-lifted plan:
///  1. key inference over shred-time fan-outs removes `distinct`
///     operators whose input is provably duplicate-free (the
///     existential-semantics distincts the loop-lifting compiler must
///     emit, which peephole rules can never remove),
///  2. a select whose predicate reads only one input of the mapping
///     join below it (plus row-independent constants) gets a copy
///     planted below that join, so the join sees fewer rows; the
///     original select stays on top as a no-op.
/// Both keep the exact row sequence, so results stay byte-identical.
/// Join order is the compiler's: nothing here reorders joins.
///
/// `schemas` is the optimizer's schema memo (algebra/schema.h): the
/// pass reads it, adds the nodes it lacks and cuts it to each of its
/// rounds' plans. Every node it holds on entry must stay alive until
/// the call returns; on return it holds only nodes of the result.
///
/// Returns a fresh DAG wherever something fired; untouched subtrees are
/// shared with the input.
Result<algebra::OpPtr> RemoveKeyDistinctsAndPushSelects(
    const algebra::OpPtr& root, const xml::Database* db,
    algebra::SchemaMap* schemas, JoinOptStats* stats = nullptr);

}  // namespace pathfinder::opt

#endif  // PATHFINDER_OPT_JOIN_GRAPH_H_
