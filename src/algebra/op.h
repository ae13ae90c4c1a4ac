#ifndef PATHFINDER_ALGEBRA_OP_H_
#define PATHFINDER_ALGEBRA_OP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/axis.h"
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
/// functions below for the per-operator contracts.
struct Op {
  OpKind kind;
  std::vector<OpPtr> children;

  // kProject: (new name, source column) pairs.
  std::vector<std::pair<std::string, std::string>> proj;

  // Column parameters: kSelect (col = predicate), kEquiJoin/kThetaJoin
  // (col ⋈ col2), kRowNum/kAttach/kFun*/kAggr (out = result column).
  std::string col, col2, out;

  // kRowNum: partition keys / order keys (order_desc[i] marks key i as
  // descending). kDistinct, kDifference: keys.
  std::vector<std::string> part, order, keys;
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

  // kLitTable / kAttach: schema and constant cells. Cells are stored as
  // Items; INT columns hold kInt items, BOOL columns kBool items.
  std::vector<std::string> names;
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
/// last) and `index` maps each node back to its number. A rewrite
/// round keeps its per-node state in vectors indexed by it.
struct PlanNumbering {
  std::vector<Op*> nodes;
  std::unordered_map<const Op*, size_t> index;
};

PlanNumbering NumberPlan(const OpPtr& root);

// ---------------------------------------------------------------------
// Builder functions. These are the only way plans are constructed, so
// invariants (child counts, parameter shapes) are centralized here.

OpPtr LitTable(std::vector<std::string> names,
               std::vector<bat::ColType> types,
               std::vector<std::vector<Item>> rows);
/// Empty table with the standard (iter INT, pos INT, item ITEM) schema.
OpPtr EmptySeq();
OpPtr Project(OpPtr child,
              std::vector<std::pair<std::string, std::string>> proj);
OpPtr Attach(OpPtr child, std::string name, bat::ColType type, Item value);
OpPtr Select(OpPtr child, std::string bool_col);
OpPtr DisjointUnion(OpPtr a, OpPtr b);
OpPtr Difference(OpPtr a, OpPtr b, std::vector<std::string> keys);
OpPtr Distinct(OpPtr child, std::vector<std::string> keys);
OpPtr EquiJoin(OpPtr a, OpPtr b, std::string acol, std::string bcol);
OpPtr ThetaJoin(OpPtr a, OpPtr b, std::string acol, std::string bcol,
                bat::CmpOp cmp);
OpPtr Cross(OpPtr a, OpPtr b);
OpPtr RowNum(OpPtr child, std::string out, std::vector<std::string> part,
             std::vector<std::string> order,
             std::vector<uint8_t> order_desc = {});
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
/// Construct one attribute node named `name` per iter of `content`
/// (whose atomized items, joined with spaces, form the value).
OpPtr AttrConstr(OpPtr content, std::string name);
/// fn:string-join: per iter of `content` (iter,pos,item), join the
/// stringified items with the iter's `sep` singleton (iter,pos,item).
/// Result: (iter, item).
OpPtr StrJoin(OpPtr content, OpPtr sep);
OpPtr MapFun1(OpPtr child, Fun1 f, std::string in, std::string out);
OpPtr MapFun2(OpPtr child, Fun2 f, std::string in1, std::string in2,
              std::string out);
/// Aggregate `val_col` of child grouped by `part_col`; result schema
/// (part_col INT, out ITEM). Groups absent from child are absent from
/// the result (the compiler patches empty groups explicitly).
OpPtr Aggr(OpPtr child, bat::AggKind agg, std::string part_col,
           std::string val_col, std::string out);
OpPtr Serialize(OpPtr child);

}  // namespace pathfinder::algebra

#endif  // PATHFINDER_ALGEBRA_OP_H_
