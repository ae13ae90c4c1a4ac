#ifndef PATHFINDER_ALGEBRA_OP_H_
#define PATHFINDER_ALGEBRA_OP_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/axis.h"
#include "base/ptr_index.h"
#include "bat/col_id.h"
#include "bat/kernel.h"

namespace pathfinder::algebra {

/// Operator kinds of the paper's Table 1 algebra (plus the doc access
/// and serialization plumbing every plan needs).
///
/// The algebra is deliberately "assembly-style" (paper Sec. 2): π never
/// eliminates duplicates, every ∪ is disjoint by construction, every ⋈
/// is an equi-join — restrictions the optimizer exploits.
enum class OpKind : uint8_t {
  kLitTable,       // literal table: schema + constant rows
  kProject,        // π  — column projection/renaming/duplication
  kAttach,         // π with an attached constant column (MIL: project)
  kSelect,         // σ  — keep rows whose BOOL column is true
  kDisjointUnion,  // ∪̇
  kDifference,     // \  — anti-join on key columns
  kDistinct,       // δ  — duplicate elimination on key columns
  kEquiJoin,       // ⋈  — hash equi-join, one key column per side
  kThetaJoin,      // comparison join (used for Q11/Q12-style >)
  kCross,          // ×
  kRowNum,         // %  — row numbering per partition, by order keys
  kStep,           // staircase join: axis step on an (iter, item) input
  kDocRoot,        // fn:doc — document name item to root node item
  kElemConstr,     // ε  — element construction (name × content)
  kTextConstr,     // τ  — text node construction
  kFun1,           // unary map operator  ~
  kFun2,           // binary map operator ~
  kAggr,           // grouped aggregate (count/sum/avg/max/min) per iter
  kStrJoin,        // fn:string-join: content x separator -> one string/iter
  kAttrConstr,     // attribute node construction (static name)
  kPathScan,       // structural step chain answered from the path summary
  kSerialize,      // plan root: materialize the (iter,pos,item) result
};

const char* OpKindName(OpKind k);

/// Number of OpKind enumerators (bound for per-kind stat arrays).
inline constexpr size_t kOpKindCount =
    static_cast<size_t>(OpKind::kSerialize) + 1;

/// Row-local, single-input operators the executor may fuse into a
/// morsel-driven pipeline fragment: σ, π, constant attach, and the
/// unary/binary map operators. Everything else (kStep, kRowNum, kAggr,
/// kDistinct, constructors, set ops, ...) breaks pipelines — it needs
/// cross-row or cross-iteration context and must see a materialized
/// input BAT.
bool IsPipelineMapOp(OpKind k);

/// Join kinds that may *head* a pipeline fragment: the probe produces
/// (left,right) row pairs that flow into the fused chain without the
/// join result ever being materialized.
bool IsPipelineJoinOp(OpKind k);

/// Unary map operators.
enum class Fun1 : uint8_t {
  kNot,         // BOOL -> BOOL
  kBoolToItem,  // BOOL -> ITEM (xs:boolean item)
  kItemToBool,  // ITEM -> BOOL (effective boolean value of one item)
  kData,        // ITEM -> ITEM: atomize (nodes -> untypedAtomic string value)
  kStringFn,    // ITEM -> ITEM: fn:string
  kNumberFn,    // ITEM -> ITEM: fn:number (double)
  kNeg,         // ITEM -> ITEM: unary minus
  kNameFn,      // ITEM -> ITEM: fn:local-name / fn:name of a node
  kStrLen,      // ITEM -> ITEM: fn:string-length
  kIntToItem,   // INT  -> ITEM: wrap a counter column as xs:integer items
  kRootNode,    // ITEM -> ITEM: fn:root of a node (its document node)
  // Dynamic kind tests (typeswitch): ITEM -> BOOL.
  kIsElement,
  kIsAttribute,
  kIsText,
  kIsNode,
  kIsInt,
  kIsDouble,
  kIsString,
  kIsBool,
};

const char* Fun1Name(Fun1 f);

/// Binary map operators (the paper's ~ row).
enum class Fun2 : uint8_t {
  kAdd,       // ITEM x ITEM -> ITEM
  kSub,
  kMul,
  kDiv,
  kIdiv,
  kMod,
  kCmpEq,     // ITEM x ITEM -> BOOL  (value comparison, numeric promotion)
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kIs,        // node identity            -> BOOL
  kBefore,    // document order <<        -> BOOL
  kAfter,     // document order >>        -> BOOL
  kContains,    // fn:contains            -> BOOL
  kStartsWith,  // fn:starts-with         -> BOOL
  kConcat,      // fn:concat  ITEM x ITEM -> ITEM
  kSubstrFrom,  // fn:substring(s, start)     ITEM x ITEM -> ITEM
  kSubstrLen,   // first `len` chars of s     ITEM x ITEM -> ITEM
  kAnd,         // BOOL x BOOL -> BOOL
  kOr,          // BOOL x BOOL -> BOOL
};

const char* Fun2Name(Fun2 f);

struct Op;
using OpPtr = std::shared_ptr<Op>;
using bat::ColId;

/// One axis step of a kPathScan chain (see the PathScan builder).
struct PathStep {
  accel::Axis axis = accel::Axis::kChild;
  accel::NodeTest test;
};

/// One node of an algebra plan DAG.
///
/// A deliberately plain struct: all parameter fields live side by side
/// (plans are hundreds of nodes at most, so the footprint is
/// irrelevant), which keeps construction, printing and rewriting simple.
/// Which fields are meaningful depends on `kind` — see the builder
/// functions below for the per-operator contracts. Columns are named by
/// ColId (bat/col_id.h); names appear only when a plan is printed.
struct Op {
  OpKind kind;
  std::vector<OpPtr> children;

  // kProject: (new name, source column) pairs.
  std::vector<std::pair<ColId, ColId>> proj;

  // Column parameters: kSelect (col = predicate), kEquiJoin/kThetaJoin
  // (col ⋈ col2), kRowNum/kAttach/kFun*/kAggr (out = result column).
  // bat::kNoCol where unused.
  ColId col = bat::kNoCol, col2 = bat::kNoCol, out = bat::kNoCol;

  // kRowNum: partition keys / order keys (order_desc[i] marks key i as
  // descending). kDistinct, kDifference: keys.
  std::vector<ColId> part, order, keys;
  std::vector<uint8_t> order_desc;

  // kStep parameters.
  accel::Axis axis = accel::Axis::kChild;
  accel::NodeTest test;

  // kPathScan: the collapsed step chain, applied in order to the
  // child's (iter, item) rows.
  std::vector<PathStep> path;

  // Function / comparison / aggregate selectors.
  Fun1 fun1 = Fun1::kNot;
  Fun2 fun2 = Fun2::kAdd;
  bat::CmpOp cmp = bat::CmpOp::kEq;
  bat::AggKind agg = bat::AggKind::kCount;

  // kAttrConstr: the attribute's name (query text, interned into the
  // database's string pool like NodeTest::name — not a column).
  StrId attr_name = 0;

  // kLitTable / kAttach: schema and constant cells. Cells are stored as
  // Items; INT columns hold kInt items, BOOL columns kBool items.
  std::vector<ColId> names;
  std::vector<bat::ColType> types;
  std::vector<std::vector<Item>> rows;  // row-major
  Item attach_val{ItemKind::kInt, 0};

  /// Stable id for printing/diffing (assigned by the builder).
  int id = 0;

  // Pipeline-fragment annotation, set by opt::AnnotatePipelines and
  // consumed by the executor when QueryContext::pipeline is on. A
  // fragment is a maximal chain of fusable operators executed as one
  // morsel-driven pass; only the tail's output is materialized as a
  // BAT. -1 = not part of any fused fragment (legacy per-operator
  // evaluation).
  int pipe_frag = -1;
  bool pipe_tail = false;

  // Subplan-result cache annotation, set by engine::AnnotateCacheCandidates
  // on freshly built plans. A candidate roots a pure (constructor-free),
  // document-derived subtree whose materialized result may be reused
  // across queries; `cache_hash` is its structural hash (the cache key,
  // see algebra/hash.h). 0 / false on unannotated plans.
  uint64_t cache_hash = 0;
  bool cache_cand = false;

  // Document dependencies of this subtree, also set by
  // AnnotateCacheCandidates (on candidates and the plan root only):
  // the sorted, de-duplicated fn:doc name strings the subtree may
  // read. `cache_docs_unknown` marks a subtree whose document names
  // could not be resolved statically (a computed fn:doc argument) —
  // such an entry depends on every document. Structural hash/equality
  // ignore both fields, like all execution annotations.
  std::vector<std::string> cache_docs;
  bool cache_docs_unknown = false;

  // True iff no operator in this subtree can read a node's *value*
  // (atomization, string functions, aggregates, theta-join compares,
  // serialization): the subtree's result is a function of document
  // structure alone. Set by AnnotateCacheCandidates alongside the
  // dependency sets; the cache repairs such entries across content-only
  // document updates instead of evicting them. Ignored by structural
  // hash/equality like all execution annotations.
  bool cache_value_free = false;
};

/// Number of distinct operator nodes in the DAG under `root`
/// (the paper's plan-size metric: "Q8 compiles to a plan DAG of 120
/// operators").
size_t CountOps(const OpPtr& root);

/// Collect the DAG's nodes bottom-up (children before parents).
std::vector<Op*> TopoOrder(const OpPtr& root);

/// Dense post-order numbering of a plan DAG, from one walk: `nodes[i]`
/// is the node numbered i (children before parents, so the root is
/// last) and `index` maps each node back to its number (one flat
/// open-addressing table, no per-node allocation). A rewrite round
/// keeps its per-node state in vectors indexed by it.
struct PlanNumbering {
  std::vector<Op*> nodes;
  PtrIndex index;

  /// Number of `op`; `op` must be in the plan.
  size_t IndexOf(const Op* op) const { return index.Find(op); }
  bool Contains(const Op* op) const {
    return index.Find(op) != PtrIndex::kAbsent;
  }
};

PlanNumbering NumberPlan(const OpPtr& root);

/// For each node of `plan` (numbered from `root`), the OpPtr owning it:
/// `root` itself, or a slot in some parent's children. A rewrite that
/// loops over the numbering hands out the original shared node through
/// it when the node stays unchanged.
std::vector<const OpPtr*> NodeOwners(const PlanNumbering& plan,
                                     const OpPtr& root);

/// Number, in `cols`, every column `plan` names: iter, pos and item,
/// then each node's column parameters. Every column of every node's
/// schema is among them.
void AddPlanColumns(const PlanNumbering& plan, bat::PlanColumns* cols);

/// `op` (a node of `plan`) itself if none of its children was rebuilt,
/// else a copy of it over the rebuilt children; `rebuilt` is indexed by
/// node number and filled for every child of `op`.
OpPtr WithRebuiltChildren(const PlanNumbering& plan, const OpPtr& op,
                          const std::vector<OpPtr>& rebuilt);

// ---------------------------------------------------------------------
// Builder functions. These are the only way plans are constructed, so
// invariants (child counts, parameter shapes) are centralized here.

OpPtr LitTable(std::vector<ColId> names,
               std::vector<bat::ColType> types,
               std::vector<std::vector<Item>> rows);
/// Empty table with the standard (iter INT, pos INT, item ITEM) schema.
OpPtr EmptySeq();
OpPtr Project(OpPtr child, std::vector<std::pair<ColId, ColId>> proj);
OpPtr Attach(OpPtr child, ColId name, bat::ColType type, Item value);
OpPtr Select(OpPtr child, ColId bool_col);
OpPtr DisjointUnion(OpPtr a, OpPtr b);
OpPtr Difference(OpPtr a, OpPtr b, std::vector<ColId> keys);
OpPtr Distinct(OpPtr child, std::vector<ColId> keys);
OpPtr EquiJoin(OpPtr a, OpPtr b, ColId acol, ColId bcol);
OpPtr ThetaJoin(OpPtr a, OpPtr b, ColId acol, ColId bcol, bat::CmpOp cmp);
OpPtr Cross(OpPtr a, OpPtr b);
OpPtr RowNum(OpPtr child, ColId out, std::vector<ColId> part,
             std::vector<ColId> order, std::vector<uint8_t> order_desc = {});
OpPtr Step(OpPtr child, accel::Axis axis, accel::NodeTest test);
OpPtr DocRoot(OpPtr child);
/// Collapsed chain of purely structural steps over the child's
/// (iter, item) rows — semantically identical to applying kStep for
/// each entry of `path` in order, but evaluated in one operator so the
/// executor can answer it from a document's path summary (and fall
/// back to successive staircase joins when no summary is available).
/// Produced only by the opt/ path rewrite; `path` must be non-empty.
OpPtr PathScan(OpPtr child, std::vector<PathStep> path);
/// name: (iter, item STR-item) singleton per iter; content: (iter, pos,
/// item). Result: (iter, item node).
OpPtr ElemConstr(OpPtr name, OpPtr content);
OpPtr TextConstr(OpPtr child);
/// Construct one attribute node named `name` (a database string-pool
/// id) per iter of `content` (whose atomized items, joined with spaces,
/// form the value).
OpPtr AttrConstr(OpPtr content, StrId name);
/// fn:string-join: per iter of `content` (iter,pos,item), join the
/// stringified items with the iter's `sep` singleton (iter,pos,item).
/// Result: (iter, item).
OpPtr StrJoin(OpPtr content, OpPtr sep);
OpPtr MapFun1(OpPtr child, Fun1 f, ColId in, ColId out);
OpPtr MapFun2(OpPtr child, Fun2 f, ColId in1, ColId in2, ColId out);
/// Aggregate `val_col` of child grouped by `part_col`; result schema
/// (part_col INT, out ITEM). Groups absent from child are absent from
/// the result (the compiler patches empty groups explicitly). A count
/// may pass bat::kNoCol as `val_col`.
OpPtr Aggr(OpPtr child, bat::AggKind agg, ColId part_col, ColId val_col,
           ColId out);
OpPtr Serialize(OpPtr child);

}  // namespace pathfinder::algebra

#endif  // PATHFINDER_ALGEBRA_OP_H_
