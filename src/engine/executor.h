#ifndef PATHFINDER_ENGINE_EXECUTOR_H_
#define PATHFINDER_ENGINE_EXECUTOR_H_

#include "algebra/op.h"
#include "base/result.h"
#include "bat/table.h"
#include "engine/query_context.h"

namespace pathfinder::engine {

/// Evaluate an algebra plan DAG bottom-up on the column-store kernel.
/// Shared subplans are evaluated exactly once (memoized per Op node).
///
/// The root is normally a Serialize operator; its result is the query's
/// (iter, pos, item) sequence encoding sorted by (iter, pos), ready for
/// the runtime serializer.
Result<bat::Table> Execute(const algebra::OpPtr& root, QueryContext* ctx);

/// Compile-only stub: perfbench/src/cold.cc is its only user, and
/// ROADMAP item 4, step 1 (TracedRun calls Run) deletes it.
inline bool PipelineDefault() { return false; }

}  // namespace pathfinder::engine

#endif  // PATHFINDER_ENGINE_EXECUTOR_H_
