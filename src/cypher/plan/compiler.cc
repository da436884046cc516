#include "src/cypher/plan/compiler.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/cypher/eval.h"

namespace pgt::cypher::plan {

namespace {

/// True if `e` is `var.key` for the given variable; sets `key`.
bool IsVarProp(const Expr& e, const std::string& var, std::string* key) {
  if (e.kind != Expr::Kind::kProp || e.a == nullptr) return false;
  if (e.a->kind != Expr::Kind::kVar || e.a->name != var) return false;
  *key = e.name;
  return true;
}

BinOp MirrorOp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;  // kEq is symmetric
  }
}

/// One sargable WHERE conjunct found at compile time.
struct SargTemplate {
  std::string key;
  BinOp op = BinOp::kEq;
  const Expr* comparand = nullptr;
};

std::string ClausePos(const Clause& c) {
  return " at " + std::to_string(c.line) + ":" + std::to_string(c.col);
}

class Compiler {
 public:
  Compiler(const CompileEnv& env, const StoreView& view)
      : env_(env), view_(view) {}

  // --- Slot universe --------------------------------------------------------

  int SlotOf(const std::string& name) {
    auto it = slot_of_.find(name);
    if (it != slot_of_.end()) return it->second;
    const int s = static_cast<int>(slot_names_.size());
    slot_of_.emplace(name, s);
    slot_names_.push_back(name);
    bound_.push_back(0);
    return s;
  }

  bool StaticallyBound(const std::string& name) const {
    auto it = slot_of_.find(name);
    return it != slot_of_.end() && bound_[it->second] != 0;
  }

  /// Marks `slot` bound; a first binding also records the slot's position
  /// in binding order (the column order of RETURN *).
  void Bind(int slot) {
    if (bound_[static_cast<size_t>(slot)] != 0) return;
    bound_[static_cast<size_t>(slot)] = 1;
    bind_order_.push_back(slot);
  }

  struct Scope {
    std::vector<char> bound;
    std::vector<int> order;
  };
  Scope SaveScope() const { return {bound_, bind_order_}; }
  void RestoreScope(Scope saved) {
    saved.bound.resize(bound_.size(), 0);
    bound_ = std::move(saved.bound);
    bind_order_ = std::move(saved.order);
  }
  void ClearScope() {
    std::fill(bound_.begin(), bound_.end(), 0);
    bind_order_.clear();
  }

  const std::vector<std::string>& slot_names() const { return slot_names_; }

  // --- Expressions ----------------------------------------------------------

  PExprPtr CompileExpr(const Expr& e) {
    auto out = std::make_unique<PExpr>();
    out->kind = e.kind;
    out->line = e.line;
    out->col = e.col;
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        out->value = e.value;
        break;
      case Expr::Kind::kParam:
        out->name = e.name;
        break;
      case Expr::Kind::kVar:
        out->name = e.name;
        out->slot = SlotOf(e.name);
        break;
      case Expr::Kind::kProp: {
        out->a = CompileExpr(*e.a);
        out->name = e.name;
        out->prop = SymbolRef(e.name);
        out->old_view_candidate = e.a->kind == Expr::Kind::kVar &&
                                  env_.old_view_vars.count(e.a->name) > 0;
        if (out->old_view_candidate) {
          out->old_view_var = TransVars::Intern(e.a->name);
        }
        break;
      }
      case Expr::Kind::kBinary: {
        out->bin_op = e.bin_op;
        out->a = CompileExpr(*e.a);
        out->b = CompileExpr(*e.b);
        // `x IN <folded literal list>`: pre-sort the elements once so the
        // executor probes in O(log n) instead of rebuilding + scanning the
        // list per evaluation (watchlist-style rule conditions).
        if (e.bin_op == BinOp::kIn &&
            out->b->kind == Expr::Kind::kLiteral &&
            out->b->value.is_list()) {
          out->const_in_probe = true;
          for (const Value& v : out->b->value.list_value()) {
            if (v.is_null()) {
              out->in_has_null = true;
            } else {
              out->in_sorted.push_back(v);
            }
          }
          std::sort(out->in_sorted.begin(), out->in_sorted.end(),
                    ValueLess{});
        }
        break;
      }
      case Expr::Kind::kUnary:
        out->un_op = e.un_op;
        out->a = CompileExpr(*e.a);
        break;
      case Expr::Kind::kFunc:
        out->name = e.name;
        out->distinct = e.distinct;
        for (const ExprPtr& arg : e.args) {
          out->args.push_back(CompileExpr(*arg));
        }
        break;
      case Expr::Kind::kCountStar:
        break;
      case Expr::Kind::kList: {
        // Constant folding: a list of literals is itself a literal,
        // materialized once here. Construction of literal lists cannot
        // error, so folding is observationally pure.
        bool all_literal = true;
        for (const ExprPtr& arg : e.args) {
          PExprPtr p = CompileExpr(*arg);
          all_literal = all_literal && p->kind == Expr::Kind::kLiteral;
          out->args.push_back(std::move(p));
        }
        if (all_literal) {
          Value::List items;
          items.reserve(out->args.size());
          for (const PExprPtr& arg : out->args) items.push_back(arg->value);
          out->kind = Expr::Kind::kLiteral;
          out->value = Value::MakeList(std::move(items));
          out->args.clear();
        }
        break;
      }
      case Expr::Kind::kMap: {
        bool all_literal = true;
        for (const auto& [k, v] : e.map_entries) {
          PExprPtr p = CompileExpr(*v);
          all_literal = all_literal && p->kind == Expr::Kind::kLiteral;
          out->map_entries.emplace_back(k, std::move(p));
        }
        if (all_literal) {  // same folding argument as kList
          Value::Map m;
          for (const auto& [k, v] : out->map_entries) m[k] = v->value;
          out->kind = Expr::Kind::kLiteral;
          out->value = Value::MakeMap(std::move(m));
          out->map_entries.clear();
        }
        break;
      }
      case Expr::Kind::kIndex:
        out->a = CompileExpr(*e.a);
        out->b = CompileExpr(*e.b);
        break;
      case Expr::Kind::kCase:
        if (e.a) out->a = CompileExpr(*e.a);
        for (const auto& [w, t] : e.whens) {
          PExprPtr pw = CompileExpr(*w);
          out->whens.emplace_back(std::move(pw), CompileExpr(*t));
        }
        if (e.c) out->c = CompileExpr(*e.c);
        break;
      case Expr::Kind::kExists: {
        // Own scope: bindings inside the subquery never escape. Pattern
        // variables still share the query-wide slot universe (an outer
        // binding of the same name constrains the match).
        Scope saved = SaveScope();
        out->pattern = std::make_unique<PPattern>(CompilePattern(
            *e.pattern, e.pattern_where.get(), /*scan_templates=*/true));
        if (e.pattern_where) out->pattern_where = CompileExpr(*e.pattern_where);
        RestoreScope(std::move(saved));
        break;
      }
      case Expr::Kind::kListComp: {
        out->name = e.name;
        out->slot = SlotOf(e.name);
        out->a = CompileExpr(*e.a);
        Scope saved = SaveScope();
        Bind(out->slot);
        if (e.b) out->b = CompileExpr(*e.b);
        if (e.c) out->c = CompileExpr(*e.c);
        RestoreScope(std::move(saved));
        break;
      }
      case Expr::Kind::kLabelTest:
        out->a = CompileExpr(*e.a);
        for (const std::string& l : e.labels) out->labels.emplace_back(l);
        break;
    }
    return out;
  }

  // --- Patterns and scan templates ------------------------------------------

  std::vector<PPropConstraint> CompileProps(
      const std::vector<std::pair<std::string, ExprPtr>>& props) {
    std::vector<PPropConstraint> out;
    for (const auto& [k, expr] : props) {
      PPropConstraint pc;
      pc.key = SymbolRef(k);
      pc.expr = CompileExpr(*expr);
      out.push_back(std::move(pc));
    }
    return out;
  }

  PNodePattern CompileNodePattern(const NodePattern& np) {
    PNodePattern out;
    out.var = np.var;
    out.slot = np.var.empty() ? -1 : SlotOf(np.var);
    out.line = np.line;
    out.col = np.col;
    for (const std::string& l : np.labels) out.labels.emplace_back(l);
    out.props = CompileProps(np.props);
    return out;
  }

  PRelPattern CompileRelPattern(const RelPattern& rp) {
    PRelPattern out;
    out.var = rp.var;
    out.slot = rp.var.empty() ? -1 : SlotOf(rp.var);
    for (const std::string& t : rp.types) out.types.emplace_back(t);
    out.props = CompileProps(rp.props);
    out.direction = rp.direction;
    out.var_length = rp.var_length;
    out.min_hops = rp.min_hops;
    out.max_hops = rp.max_hops;
    return out;
  }

  /// Whether the scan planner may evaluate `e` before enumerating
  /// candidates: literals, parameters, negations of those, and reads of
  /// variables bound before the pattern (e.g. `NEW.pid` inside a trigger
  /// condition). The compile-time bound set equals runtime boundness.
  bool StaticPlannerEvaluable(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kParam:
        return true;
      case Expr::Kind::kVar:
        return StaticallyBound(e.name);
      case Expr::Kind::kProp:
        return e.a != nullptr && e.a->kind == Expr::Kind::kVar &&
               StaticallyBound(e.a->name);
      case Expr::Kind::kUnary:
        return e.un_op == UnOp::kNeg && e.a != nullptr &&
               StaticPlannerEvaluable(*e.a);
      default:
        return false;
    }
  }

  /// Sargable `var.prop <op> value` predicates among the top-level AND
  /// conjuncts of a WHERE clause.
  void CollectSargTemplates(const Expr& e, const std::string& var,
                            std::vector<SargTemplate>* out) const {
    if (e.kind == Expr::Kind::kBinary && e.bin_op == BinOp::kAnd) {
      if (e.a != nullptr) CollectSargTemplates(*e.a, var, out);
      if (e.b != nullptr) CollectSargTemplates(*e.b, var, out);
      return;
    }
    if (e.kind != Expr::Kind::kBinary || e.a == nullptr || e.b == nullptr) {
      return;
    }
    switch (e.bin_op) {
      case BinOp::kEq:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
        break;
      default:
        return;
    }
    std::string key;
    const Expr* comparand = nullptr;
    BinOp op = e.bin_op;
    if (IsVarProp(*e.a, var, &key) && StaticPlannerEvaluable(*e.b)) {
      comparand = e.b.get();
    } else if (IsVarProp(*e.b, var, &key) && StaticPlannerEvaluable(*e.a)) {
      comparand = e.a.get();
      op = MirrorOp(op);
    } else {
      return;
    }
    out->push_back(SargTemplate{std::move(key), op, comparand});
  }

  /// The access-path template for a part's first node: one equality probe
  /// per (label, prop) index the view has for an evaluable inline property
  /// or WHERE equality, and one range group per key with a range index.
  /// Probes keep owned compiled copies of their comparands. Only the
  /// inline props and WHERE conjuncts are read here; the matcher still
  /// checks both on every candidate, so pruning never changes results.
  PScanTemplate BuildScanTemplate(const NodePattern& np,
                                  const Expr* where_hint) {
    PScanTemplate t;
    if (!view_.HasIndexes()) return t;

    // Compile-time-resolvable real labels, in pattern order. Names that are
    // transition seeds resolve as pseudo-labels at runtime and never reach
    // the planner; unresolvable names can only gain an index through index
    // DDL, which recompiles the plan.
    std::vector<LabelId> labels;
    for (const std::string& name : np.labels) {
      if (std::find(env_.seed_vars.begin(), env_.seed_vars.end(), name) !=
          env_.seed_vars.end()) {
        continue;
      }
      auto id = view_.LookupLabel(name);
      if (id.has_value()) labels.push_back(*id);
    }
    if (labels.empty()) return t;  // indexes are label-scoped

    std::map<PropKeyId, PScanTemplate::RangeGroup> range_groups;
    auto consider_eq = [&](const std::string& key, const Expr& comparand,
                           int inline_prop_idx) {
      auto pk = view_.LookupPropKey(key);
      if (!pk.has_value()) return;
      for (LabelId l : labels) {
        const IndexRef idx = view_.FindIndex(l, *pk);
        if (!idx) continue;
        PScanTemplate::EqProbe probe;
        probe.label = l;
        probe.prop = *pk;
        probe.unique = idx.unique();
        probe.inline_prop_idx = inline_prop_idx;
        probe.comparand = CompileExpr(comparand);
        t.eq_probes.push_back(std::move(probe));
      }
    };
    auto consider_range = [&](const std::string& key, BinOp op,
                              const Expr& comparand) {
      auto pk = view_.LookupPropKey(key);
      if (!pk.has_value()) return;
      for (LabelId l : labels) {
        if (!view_.FindIndex(l, *pk).SupportsRange()) continue;
        auto [it, inserted] = range_groups.try_emplace(*pk);
        if (inserted) {
          it->second.label = l;
          it->second.prop = *pk;
        }
        PScanTemplate::RangeBound bound;
        bound.op = op;
        bound.comparand = CompileExpr(comparand);
        it->second.bounds.push_back(std::move(bound));
        break;  // bounds are per-key; one range index suffices
      }
    };

    for (size_t i = 0; i < np.props.size(); ++i) {
      const auto& [key, expr] = np.props[i];
      if (expr == nullptr || !StaticPlannerEvaluable(*expr)) continue;
      consider_eq(key, *expr, static_cast<int>(i));
    }
    if (where_hint != nullptr && !np.var.empty() &&
        !StaticallyBound(np.var)) {
      std::vector<SargTemplate> sargs;
      CollectSargTemplates(*where_hint, np.var, &sargs);
      for (const SargTemplate& s : sargs) {
        if (s.op == BinOp::kEq) {
          consider_eq(s.key, *s.comparand, -1);
        } else {
          consider_range(s.key, s.op, *s.comparand);
        }
      }
    }
    for (auto& [pk, group] : range_groups) {
      (void)pk;
      t.range_groups.push_back(std::move(group));
    }
    return t;
  }

  PPattern CompilePattern(const Pattern& p, const Expr* where_hint,
                          bool scan_templates) {
    PPattern out;
    // Introduced-variable slots, first node then (rel, node) per hop (the
    // executor pads only the ones unbound at runtime, for OPTIONAL MATCH).
    auto add_intro = [&](const std::string& v) {
      if (v.empty()) return;
      const int s = SlotOf(v);
      if (std::find(out.intro_slots.begin(), out.intro_slots.end(), s) ==
          out.intro_slots.end()) {
        out.intro_slots.push_back(s);
      }
    };
    for (const PatternPart& part : p.parts) {
      add_intro(part.first.var);
      for (const auto& [rel, node] : part.chain) {
        add_intro(rel.var);
        add_intro(node.var);
      }
    }

    // Bind in the order the matcher binds: the first node, then the node
    // and the relationship of each hop.
    for (const PatternPart& part : p.parts) {
      PPatternPart pp;
      pp.first = CompileNodePattern(part.first);
      if (scan_templates) pp.scan = BuildScanTemplate(part.first, where_hint);
      if (!part.first.var.empty()) Bind(SlotOf(part.first.var));
      for (const auto& [rp, np] : part.chain) {
        PRelPattern prp = CompileRelPattern(rp);
        PNodePattern pnp = CompileNodePattern(np);
        if (!np.var.empty()) Bind(SlotOf(np.var));
        if (!rp.var.empty()) Bind(SlotOf(rp.var));
        pp.chain.emplace_back(std::move(prp), std::move(pnp));
      }
      out.parts.push_back(std::move(pp));
    }
    return out;
  }

  // --- Clause items ---------------------------------------------------------

  PSetItem CompileSetItem(const SetItem& it) {
    PSetItem out;
    out.kind = it.kind;
    switch (it.kind) {
      case SetItem::Kind::kProperty:
        out.target = CompileExpr(*it.target);
        out.prop = SymbolRef(it.prop);
        out.value = CompileExpr(*it.value);
        break;
      case SetItem::Kind::kMergeMap:
        out.var = it.var;
        out.var_slot = SlotOf(it.var);
        out.value = CompileExpr(*it.value);
        break;
      case SetItem::Kind::kLabels:
        out.var = it.var;
        out.var_slot = SlotOf(it.var);
        for (const std::string& l : it.labels) out.labels.emplace_back(l);
        break;
    }
    return out;
  }

  std::vector<PSetItem> CompileSetItems(const std::vector<SetItem>& items) {
    std::vector<PSetItem> out;
    out.reserve(items.size());
    for (const SetItem& it : items) out.push_back(CompileSetItem(it));
    return out;
  }

  PRemoveItem CompileRemoveItem(const RemoveItem& it) {
    PRemoveItem out;
    out.kind = it.kind;
    if (it.kind == RemoveItem::Kind::kProperty) {
      out.target = CompileExpr(*it.target);
      out.prop = SymbolRef(it.prop);
    } else {
      out.var = it.var;
      out.var_slot = SlotOf(it.var);
      for (const std::string& l : it.labels) out.labels.emplace_back(l);
    }
    return out;
  }

  // --- Clauses --------------------------------------------------------------

  void CompileProjection(const Clause& c, PStep& s) {
    s.is_return = c.kind == Clause::Kind::kReturn;
    s.distinct = c.distinct;
    if (c.return_star) {
      // Pass-through: every bound variable stays in scope, and the result
      // columns are the bindings in the order they were first bound.
      s.star = true;
      for (int slot : bind_order_) {
        s.out_slots.push_back(slot);
        s.out_names.push_back(slot_names_[static_cast<size_t>(slot)]);
      }
    } else {
      for (const ProjItem& item : c.items) {
        PProjItem pi;
        pi.expr = CompileExpr(*item.expr);
        pi.alias = item.alias;
        pi.slot = SlotOf(item.alias);
        pi.has_aggregate = ContainsAggregate(*item.expr);
        if (pi.has_aggregate) s.any_aggregate = true;
        s.items.push_back(std::move(pi));
      }
      for (PProjItem& pi : s.items) {
        if (pi.has_aggregate) NumberAggregates(pi.expr.get(), &s.agg_count);
      }
      for (const PProjItem& pi : s.items) {
        if (std::find(s.out_slots.begin(), s.out_slots.end(), pi.slot) ==
            s.out_slots.end()) {
          s.out_slots.push_back(pi.slot);
          s.out_names.push_back(pi.alias);
        }
      }
      // WITH/RETURN re-scope the rows to the projected aliases.
      ClearScope();
      for (int slot : s.out_slots) Bind(slot);
    }
    if (c.where) s.where = CompileExpr(*c.where);
    for (const SortItem& item : c.order_by) {
      PSortItem ps;
      ps.expr = CompileExpr(*item.expr);
      ps.ascending = item.ascending;
      s.order_by.push_back(std::move(ps));
    }
    if (c.skip != nullptr || c.limit != nullptr) {
      // SKIP/LIMIT evaluate against an empty row.
      Scope saved = SaveScope();
      ClearScope();
      if (c.skip) s.skip = CompileExpr(*c.skip);
      if (c.limit) s.limit = CompileExpr(*c.limit);
      RestoreScope(std::move(saved));
    }
  }

  PStep CompileClause(const Clause& c) {
    PStep s;
    s.kind = c.kind;
    s.line = c.line;
    s.col = c.col;
    switch (c.kind) {
      case Clause::Kind::kMatch:
        s.optional_match = c.optional_match;
        s.pattern =
            CompilePattern(c.pattern, c.where.get(), /*scan_templates=*/true);
        if (c.where) s.where = CompileExpr(*c.where);
        // Surviving rows (matched or OPTIONAL-padded) bind every pattern
        // variable.
        for (int slot : s.pattern.intro_slots) Bind(slot);
        break;
      case Clause::Kind::kUnwind:
        s.unwind_expr = CompileExpr(*c.unwind_expr);
        s.unwind_slot = SlotOf(c.unwind_var);
        Bind(s.unwind_slot);
        break;
      case Clause::Kind::kWith:
      case Clause::Kind::kReturn:
        CompileProjection(c, s);
        break;
      case Clause::Kind::kCreate:
        s.pattern =
            CompilePattern(c.pattern, nullptr, /*scan_templates=*/false);
        for (int slot : s.pattern.intro_slots) Bind(slot);
        break;
      case Clause::Kind::kMerge:
        s.pattern = CompilePattern(c.pattern, nullptr, /*scan_templates=*/true);
        for (int slot : s.pattern.intro_slots) Bind(slot);
        s.on_create = CompileSetItems(c.on_create);
        s.on_match = CompileSetItems(c.on_match);
        break;
      case Clause::Kind::kDelete:
        s.detach = c.detach;
        for (const ExprPtr& e : c.delete_exprs) {
          s.delete_exprs.push_back(CompileExpr(*e));
        }
        break;
      case Clause::Kind::kSet:
        s.set_items = CompileSetItems(c.set_items);
        break;
      case Clause::Kind::kRemove:
        for (const RemoveItem& it : c.remove_items) {
          s.remove_items.push_back(CompileRemoveItem(it));
        }
        break;
      case Clause::Kind::kForeach: {
        s.foreach_list = CompileExpr(*c.foreach_list);
        s.foreach_slot = SlotOf(c.foreach_var);
        Scope saved = SaveScope();
        Bind(s.foreach_slot);
        s.foreach_body = CompileClauses(c.foreach_body, ClauseMode::kNoReturn);
        RestoreScope(std::move(saved));
        break;
      }
      case Clause::Kind::kCall:
        s.call_proc = c.call_proc;
        for (const ExprPtr& arg : c.call_args) {
          s.call_args.push_back(CompileExpr(*arg));
        }
        s.call_yield = c.call_yield;
        for (const std::string& y : c.call_yield) {
          s.call_yield_slots.push_back(SlotOf(y));
          Bind(s.call_yield_slots.back());
        }
        break;
    }
    return s;
  }

  std::vector<PStep> CompileClauses(const std::vector<ClausePtr>& clauses,
                                    ClauseMode mode) {
    std::vector<PStep> steps;
    for (size_t i = 0; i < clauses.size(); ++i) {
      const Clause& c = *clauses[i];
      if (c.kind == Clause::Kind::kReturn) {
        const char* error = nullptr;
        if (mode == ClauseMode::kNoReturn) {
          error = "RETURN is not allowed here";
        } else if (mode == ClauseMode::kTopLevel && i + 1 != clauses.size()) {
          error = "RETURN must be the final clause";
        }
        if (error != nullptr) {
          // Nothing after a raising step can run; compile no further.
          PStep s;
          s.kind = c.kind;
          s.line = c.line;
          s.col = c.col;
          s.error = std::string(error) + ClausePos(c);
          steps.push_back(std::move(s));
          return steps;
        }
      }
      steps.push_back(CompileClause(c));
    }
    return steps;
  }

 private:
  /// Numbers aggregate calls in pre-order (a, b, c, args, map entries,
  /// whens; EXISTS subqueries excluded; no descent into aggregate
  /// arguments).
  void NumberAggregates(PExpr* e, int* counter) {
    if (e->kind == Expr::Kind::kCountStar ||
        (e->kind == Expr::Kind::kFunc && IsAggregateFunctionName(e->name))) {
      e->agg_index = (*counter)++;
      return;
    }
    if (e->kind == Expr::Kind::kExists) return;
    if (e->a) NumberAggregates(e->a.get(), counter);
    if (e->b) NumberAggregates(e->b.get(), counter);
    if (e->c) NumberAggregates(e->c.get(), counter);
    for (PExprPtr& arg : e->args) NumberAggregates(arg.get(), counter);
    for (auto& [k, v] : e->map_entries) {
      (void)k;
      NumberAggregates(v.get(), counter);
    }
    for (auto& [w, t] : e->whens) {
      NumberAggregates(w.get(), counter);
      NumberAggregates(t.get(), counter);
    }
  }

  const CompileEnv& env_;
  const StoreView& view_;
  std::unordered_map<std::string, int> slot_of_;
  std::vector<std::string> slot_names_;
  std::vector<char> bound_;
  std::vector<int> bind_order_;
};

}  // namespace

PlanProgram CompileQuery(const Query& q, const CompileEnv& env,
                         const StoreView& view, ClauseMode mode) {
  Compiler c(env, view);
  for (const std::string& name : env.seed_vars) c.Bind(c.SlotOf(name));
  PlanProgram prog;
  prog.steps = c.CompileClauses(q.clauses, mode);
  prog.slot_names = c.slot_names();
  prog.slot_count = prog.slot_names.size();
  return prog;
}

TriggerProgram CompileTrigger(const Expr* when_expr, const Query* when_query,
                              const Query& action, const CompileEnv& env,
                              const StoreView& view) {
  Compiler c(env, view);
  TriggerProgram tp;
  for (const std::string& name : env.seed_vars) {
    const int slot = c.SlotOf(name);
    c.Bind(slot);
    tp.seed_slots.emplace_back(TransVars::Intern(name), slot);
  }
  if (when_expr != nullptr) {
    tp.when_expr = c.CompileExpr(*when_expr);
  } else if (when_query != nullptr && !when_query->clauses.empty()) {
    tp.when_steps =
        c.CompileClauses(when_query->clauses, ClauseMode::kPipeline);
  }
  // Transition variables are re-seeded into the condition's result rows
  // before the action runs (Section 6.2 scope rule), so the action compiles
  // with them statically bound again.
  for (const auto& [var, slot] : tp.seed_slots) {
    (void)var;
    c.Bind(slot);
  }
  tp.action_steps = c.CompileClauses(action.clauses, ClauseMode::kNoReturn);
  tp.slot_names = c.slot_names();
  tp.slot_count = tp.slot_names.size();
  return tp;
}

}  // namespace pgt::cypher::plan
