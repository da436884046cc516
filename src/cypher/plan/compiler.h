#ifndef PGTRIGGERS_CYPHER_PLAN_COMPILER_H_
#define PGTRIGGERS_CYPHER_PLAN_COMPILER_H_

#include <set>
#include <string>
#include <vector>

#include "src/cypher/ast.h"
#include "src/cypher/plan/program.h"
#include "src/storage/store_view.h"

namespace pgt::cypher::plan {

/// Compile-time facts about the execution environment of a statement.
struct CompileEnv {
  /// Variables bound before the first clause, in seeding order (the trigger
  /// engine's transition variables; empty for ad-hoc statements).
  std::vector<std::string> seed_vars;
  /// Variable names whose property reads may resolve against the OLD
  /// transition images at runtime (TransitionEnv::old_view_vars is always a
  /// subset of these for the statement's activations).
  std::set<std::string> old_view_vars;
};

/// Where a clause list may contain RETURN.
enum class ClauseMode {
  kTopLevel,  ///< a statement: RETURN only as the final clause
  kPipeline,  ///< a clause pipeline: RETURN anywhere, acting as a projection
  kNoReturn,  ///< trigger action, FOREACH body: RETURN is an error
};

/// Lowers a parsed statement into a slot-addressed program. Compilation is
/// total: every statement the parser accepts compiles. A RETURN the clause
/// mode does not allow compiles into a step that raises the runtime error
/// when execution reaches it.
///
/// The compiler reads nothing but `view`: its dictionaries, and its index
/// catalog (live views) or pinned index image (snapshot views) to pick scan
/// templates. A reader thread therefore compiles against its snapshot
/// without touching the writer's store. Templates name indexes by (label,
/// property) and every execution resolves them through the executing view,
/// so a program never holds index pointers. Callers that cache programs
/// key them on the plan epoch and recompile after index DDL to pick up new
/// indexes.
PlanProgram CompileQuery(const Query& q, const CompileEnv& env,
                         const StoreView& view,
                         ClauseMode mode = ClauseMode::kTopLevel);

/// Compiles a trigger's WHEN (expression or read-only pipeline) and action
/// into one program with a shared slot universe, so condition bindings stay
/// in scope for the action (DESIGN.md D2).
TriggerProgram CompileTrigger(const Expr* when_expr, const Query* when_query,
                              const Query& action, const CompileEnv& env,
                              const StoreView& view);

}  // namespace pgt::cypher::plan

#endif  // PGTRIGGERS_CYPHER_PLAN_COMPILER_H_
