#ifndef CEPR_PLAN_PATTERN_H_
#define CEPR_PLAN_PATTERN_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/bytecode.h"
#include "expr/expr.h"
#include "expr/typecheck.h"

namespace cepr {

/// A negated pattern component, compiled into a "watcher": while a run
/// waits to begin the following positive component, any event that matches
/// the watcher kills the run (the pattern requires that no such event
/// occurs there).
struct CompiledNegation {
  int var_index = -1;     // the negated variable (candidate binds here)
  std::string type_tag;   // optional event-type filter
  /// Conjuncts referencing the negated variable (as candidate) and any
  /// earlier, already-bound variables.
  std::vector<ExprPtr> preds;
  /// Parallel to `preds`: per-event predicate-cache id for conjuncts the
  /// compiler classified event-only (IsEventOnlyPredicate), -1 for
  /// correlated ones.
  std::vector<int> pred_cache_ids;
  /// Parallel to `preds`: compiled bytecode, never null.
  std::vector<BytecodeProgramPtr> pred_progs;
};

/// One positive component of the compiled pattern, with the WHERE conjuncts
/// pushed down onto it (SASE-style predicate decomposition).
struct CompiledComponent {
  int var_index = -1;  // into the query's BindingLayout
  bool is_kleene = false;
  bool is_optional = false;  // `v?`: zero or one event
  /// Kleene iteration bounds (meaningful when is_kleene); max_iters = -1
  /// means unbounded.
  int64_t min_iters = 1;
  int64_t max_iters = -1;
  std::string type_tag;  // optional event-type filter

  /// Single components: conjuncts whose latest reference is this variable;
  /// evaluated with the candidate event bound to it. The parallel
  /// `begin_pred_cache_ids` vector carries the per-event predicate-cache id
  /// of each conjunct the compiler classified event-only (its value depends
  /// only on the candidate event, so the matcher evaluates it once per
  /// event and shares the verdict across runs), or -1 for correlated
  /// conjuncts that must be evaluated against each run's bindings.
  std::vector<ExprPtr> begin_preds;
  std::vector<int> begin_pred_cache_ids;
  /// Parallel to `begin_preds`: compiled bytecode the matcher executes,
  /// never null (likewise `iter_pred_progs` and `exit_pred_progs`).
  std::vector<BytecodeProgramPtr> begin_pred_progs;

  /// Kleene components: conjuncts containing a current-iteration reference
  /// (v[i]); evaluated against every candidate iteration. Parallel flags
  /// mark conjuncts that reference v[i-1] and are therefore vacuously true
  /// for the first iteration; parallel cache ids as for begin_preds
  /// (event-only iter conjuncts never reference v[i-1]).
  std::vector<ExprPtr> iter_preds;
  std::vector<bool> iter_pred_uses_prev;
  std::vector<int> iter_pred_cache_ids;
  std::vector<BytecodeProgramPtr> iter_pred_progs;

  /// Kleene components: conjuncts whose latest reference is this variable
  /// but that do not look at the current iteration (aggregate constraints
  /// like SUM(v.x) > 100). Checked whenever the component tries to close —
  /// failure blocks the transition now but does not kill the run (more
  /// iterations may satisfy it later).
  std::vector<ExprPtr> exit_preds;
  std::vector<BytecodeProgramPtr> exit_pred_progs;

  /// Watcher active while a run waits to begin this component.
  std::optional<CompiledNegation> negation_before;

  /// True iff a run may advance past this component without binding any
  /// event to it (optional, or Kleene with zero minimum).
  bool skippable() const {
    return is_optional || (is_kleene && min_iters == 0);
  }
};

/// The fully decomposed pattern: positive components in order, each
/// carrying its pushed-down predicates and any preceding negation watcher.
struct CompiledPattern {
  std::vector<CompiledComponent> components;

  /// All MIN/MAX/SUM/AVG accumulators any predicate/select/score needs,
  /// indexed by Expr::agg_slot. Runs size their accumulator arrays from it.
  std::vector<AggSpec> agg_specs;

  /// Position of each layout variable among the positive components, or -1
  /// for negated variables.
  std::vector<int> position_of_var;

  /// Number of event-only predicates across all components (dense cache-id
  /// space 0..num_event_preds-1); sizes the matcher's per-event cache.
  int num_event_preds = 0;

  /// Debug rendering of components and their predicate groups.
  std::string ToString(const BindingLayout& layout) const;
};

}  // namespace cepr

#endif  // CEPR_PLAN_PATTERN_H_
