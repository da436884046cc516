#ifndef PGTRIGGERS_CYPHER_PLAN_PLAN_EXECUTOR_H_
#define PGTRIGGERS_CYPHER_PLAN_PLAN_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/cypher/eval.h"
#include "src/cypher/scan_plan.h"
#include "src/cypher/plan/program.h"

namespace pgt::cypher {

/// Tabular result of a query (populated by a trailing RETURN; queries
/// without RETURN produce an empty table but still report row counts).
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Convenience for tests: single-cell access.
  const Value& at(size_t r, size_t c) const { return rows[r][c]; }

  /// Renders an aligned ASCII table (examples/bench output).
  std::string ToTable() const;
};

}  // namespace pgt::cypher

namespace pgt::cypher::plan {

/// Executes compiled programs over slot-addressed frames.
///
/// Clauses execute strictly left to right over materialized frames; writes
/// are applied immediately through the change-tracking Transaction, so
/// later clauses observe earlier writes — matching the "interleaving of
/// MATCH clauses with ... creations, updates and deletions" the paper
/// discusses in Section 4.2. Variables are slot reads and flat frame
/// copies, label/type/property names hit per-plan symbol caches, and scan
/// planning instantiates the compile-time template per input row. Results
/// are pinned by the golden corpus (tests/corpus/plan).
///
/// Reads go through EvalContext::store(): the live store on the writer
/// thread, or a pinned snapshot on a reader thread (no transaction; the
/// reader passes its own thread's frame pool — a pool is single-threaded).
class PlanExecutor {
 public:
  /// `pool` recycles frame slot buffers across frames and across
  /// executions — the Database / engine pass their long-lived pool, other
  /// callers a thread_local one, so steady-state runs allocate no frames.
  PlanExecutor(EvalContext ctx, const std::vector<std::string>& slot_names,
               FramePool& pool)
      : ctx_(ctx), slot_names_(slot_names), pool_(pool) {}

  /// A fresh frame of slot_count() slots.
  Frame NewFrame() { return pool_.Acquire(slot_count()); }
  /// A copy of `src` into a pooled buffer.
  Frame CopyFrame(const Frame& src) { return pool_.AcquireCopy(src); }
  void Recycle(Frame&& f) { pool_.Recycle(std::move(f)); }
  /// Leaves `frames` empty (SKIP relies on it).
  void RecycleAll(std::vector<Frame>&& frames) {
    pool_.RecycleAll(std::move(frames));
  }
  /// An empty frames vector with banked capacity.
  std::vector<Frame> NewFrameVec() { return pool_.AcquireVec(); }

  /// Node-scan buffers, recycled via the shared FramePool so they stay
  /// warm across executor instances (one executor is built per statement /
  /// activation).
  NodeScanBuffers AcquireScanBufs() { return pool_.AcquireScanBufs(); }
  void ReleaseScanBufs(NodeScanBuffers&& b) {
    pool_.ReleaseScanBufs(std::move(b));
  }

  /// Executes a full statement, shaping the result table from the final
  /// RETURN step.
  Result<QueryResult> Run(const std::vector<PStep>& steps, Frame seed);

  /// Applies a step pipeline to explicit frames and returns the resulting
  /// frames (trigger WHEN pipelines produce the frames the action runs
  /// over, DESIGN.md D2).
  Result<std::vector<Frame>> RunClauses(const std::vector<PStep>& steps,
                                        std::vector<Frame> frames);

  /// Runs update steps over explicit frames (trigger actions, FOREACH
  /// bodies).
  Status RunUpdates(const std::vector<PStep>& steps,
                    std::vector<Frame> frames);

  /// Expression evaluation. Takes a mutable frame so list comprehensions
  /// can bind their iteration slot in place (saved/restored around the
  /// loop); every other path leaves the frame untouched.
  Result<Value> Eval(const PExpr& e, Frame& f);
  /// Evaluates a predicate: true iff the value is boolean true (NULL and
  /// false both fail, per Cypher WHERE).
  Result<bool> EvalPredicate(const PExpr& e, Frame& f);

  EvalContext& ctx() { return ctx_; }
  size_t slot_count() const { return slot_names_.size(); }

  /// Enumerates the matches of `pattern` extending `row` (MATCH/MERGE
  /// steps and EXISTS subqueries). Semantics follow openCypher: parts
  /// match left to right in one scope, bound variables constrain the
  /// match, one pattern never binds a relationship twice, variable-length
  /// hops bind the list of traversed relationships, and names of
  /// transition sets act as pseudo-labels (DESIGN.md D6). Candidates of a
  /// part's first node enumerate in ascending id order whatever access
  /// path is chosen (transition sets: in event order), so results never
  /// depend on the indexes present.
  Status MatchPattern(const PPattern& pattern, const Frame& row,
                      const std::function<Status(Frame&)>& emit);

  /// The access path MatchPattern takes for `part`'s first node over
  /// `row` (tests and diagnostics).
  NodeScanPlan ChooseScan(const PPatternPart& part, const Frame& row);

 private:
  Result<std::vector<Frame>> ApplyStep(const PStep& s,
                                       std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyMatch(const PStep& s,
                                        std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyUnwind(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyProjection(const PStep& s,
                                             std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyCreate(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyMerge(const PStep& s,
                                        std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyDelete(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplySet(const PStep& s,
                                      std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyRemove(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyForeach(const PStep& s,
                                          std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyCall(const PStep& s,
                                       std::vector<Frame> frames);

  /// `row` is mutable scratch: Eval binds list-comprehension slots in
  /// place (restored by SlotSaver).
  Status ApplySetItems(const std::vector<PSetItem>& items, Frame& row);
  Result<Frame> CreatePatternPart(const PPatternPart& part, Frame row);

  Result<bool> PatternExists(const PPattern& pattern, const PExpr* where,
                             const Frame& row);

  /// Computes the aggregate calls of one projection item over a group, in
  /// substitution pre-order, into `results` (indexed by PExpr::agg_index).
  Status ComputeAggregates(const PExpr& e, std::vector<Frame>& group,
                           std::vector<Value>* results);

  EvalContext ctx_;
  const std::vector<std::string>& slot_names_;
  FramePool& pool_;
  /// Non-null only while evaluating a projection item whose aggregates were
  /// precomputed; aggregate nodes then read their substituted value.
  const std::vector<Value>* agg_results_ = nullptr;
};

}  // namespace pgt::cypher::plan

namespace pgt::cypher {

/// Compile-and-run for callers that hold a parsed statement but no cached
/// program (the APOC / Memgraph emulators, apoc.do.when, tests): compiles
/// against the context's view with the seed row's variables pre-bound,
/// then runs the program once.
class Executor {
 public:
  explicit Executor(EvalContext ctx) : ctx_(std::move(ctx)) {}

  /// Runs a statement (RETURN only as the final clause).
  Result<QueryResult> Run(const Query& q, const Row& seed);

  /// Runs a clause pipeline (RETURN anywhere, acting as a projection) and
  /// discards its rows.
  Status RunClauses(const Query& q, const Row& seed);

 private:
  EvalContext ctx_;
};

}  // namespace pgt::cypher

#endif  // PGTRIGGERS_CYPHER_PLAN_PLAN_EXECUTOR_H_
