#ifndef CEPR_EXPR_EVAL_H_
#define CEPR_EXPR_EVAL_H_

#include "event/event.h"
#include "expr/expr.h"

namespace cepr {

/// The binding state the bytecode VM (expr/vm.h) evaluates an expression
/// against. Implemented by the engine's active Run (partial matches, for
/// edge predicates) and by completed Match objects (for SELECT / RANK BY).
/// All accessors may return nullptr for unbound variables; evaluation then
/// yields NULL.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// The event bound to a non-Kleene variable (also the candidate event when
  /// testing a negated component's predicate).
  virtual const Event* SingleEvent(int var_index) const = 0;

  /// First / most-recently-accepted iteration of a Kleene variable.
  virtual const Event* KleeneFirst(int var_index) const = 0;
  virtual const Event* KleeneLast(int var_index) const = 0;

  /// The candidate event currently being tested for acceptance into a
  /// Kleene variable (b[i] in predicates); nullptr outside predicate
  /// evaluation.
  virtual const Event* KleeneCurrent(int var_index) const = 0;

  /// Number of accepted iterations of a Kleene variable.
  virtual int64_t KleeneCount(int var_index) const = 0;

  /// Accumulated MIN/MAX/SUM value for compiler-assigned slot `agg_slot`.
  virtual double AggValue(int agg_slot) const = 0;
};

/// Minimal EvalContext for event-only predicates (see IsEventOnlyPredicate):
/// the candidate event answers for `var_index` — both as a single binding
/// and as the current Kleene iteration — and everything else is unbound.
/// Evaluating an event-only predicate here yields exactly the value a Run
/// with the candidate installed would produce, which is what lets the
/// matcher evaluate it once per event and share the verdict across runs.
class EventOnlyContext : public EvalContext {
 public:
  EventOnlyContext(int var_index, const Event* event)
      : var_(var_index), event_(event) {}

  const Event* SingleEvent(int var_index) const override {
    return var_index == var_ ? event_ : nullptr;
  }
  const Event* KleeneFirst(int) const override { return nullptr; }
  const Event* KleeneLast(int) const override { return nullptr; }
  const Event* KleeneCurrent(int var_index) const override {
    return var_index == var_ ? event_ : nullptr;
  }
  int64_t KleeneCount(int) const override { return 0; }
  double AggValue(int) const override { return 0.0; }

 private:
  int var_;
  const Event* event_;  // not owned; valid during one evaluation
};

/// True iff `expr`'s value depends only on the candidate event under test
/// for variable `var_index`: every binding reference is that variable's own
/// event (a plain reference for single variables, a current-iteration
/// `v[i]` reference for Kleene variables) and the tree contains no
/// aggregates and no prev/first iteration references. Such a predicate is
/// run-independent, so the compiler assigns it a cache id and the matcher
/// memoizes its verdict per event (the per-event predicate cache).
bool IsEventOnlyPredicate(const Expr& expr, int var_index, bool is_kleene);

}  // namespace cepr

#endif  // CEPR_EXPR_EVAL_H_
