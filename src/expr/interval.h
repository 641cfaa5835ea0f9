#ifndef CEPR_EXPR_INTERVAL_H_
#define CEPR_EXPR_INTERVAL_H_

#include <limits>
#include <optional>
#include <string>

#include "expr/bytecode.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/vm.h"

namespace cepr {

/// A closed real interval [lo, hi], possibly unbounded. The unit of the
/// ranking pruner: the derived bound on the score of any completion of a
/// partial match. Boolean subexpressions are represented on [0, 1]
/// (0 = false, 1 = true).
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  static Interval Point(double x) { return {x, x}; }
  static Interval Whole() { return {}; }
  static Interval Of(double lo, double hi) { return {lo, hi}; }

  bool IsPoint() const { return lo == hi; }
  bool Contains(double x) const { return lo <= x && x <= hi; }

  std::string ToString() const;

  // Interval arithmetic. Multiplication and division follow the standard
  // rules with the convention 0 * inf = 0 (counts of impossible events
  // contribute nothing).
  friend Interval operator+(Interval a, Interval b);
  friend Interval operator-(Interval a, Interval b);
  friend Interval operator-(Interval a);  // negation
  friend Interval operator*(Interval a, Interval b);
  /// Division; an interval divisor containing zero yields Whole().
  friend Interval operator/(Interval a, Interval b);

  /// Convex hull of the two intervals.
  static Interval Hull(Interval a, Interval b);
  /// Pointwise min / max (for LEAST / GREATEST).
  static Interval Min(Interval a, Interval b);
  static Interval Max(Interval a, Interval b);
};

/// The environment the bound deriver consults: which pattern variables are
/// still "open" (can accept more events, so their references are uncertain)
/// and what value ranges future events may take.
class BoundEnv {
 public:
  virtual ~BoundEnv() = default;

  /// Value range for attribute `attr_index` of future events (declared in
  /// the schema or learned online). kTimestampAttr and attributes with no
  /// known range return Whole().
  virtual Interval AttrRange(int attr_index) const = 0;

  /// True iff variable `var_index` has its final binding — no future event
  /// can change any reference to it.
  virtual bool IsClosed(int var_index) const = 0;

  /// The partial-match binding, for point values of closed references and
  /// for running aggregate state.
  virtual const EvalContext& Context() const = 0;

  // -- Optional refinements (shared match DAG) ------------------------------
  // The lazy enumerator's bound environment knows more than a live Run: a
  // DAG node's aggregate summaries already cover *every* completion through
  // it, and the node's path-length counts bound the final Kleene
  // cardinality. The defaults reproduce the legacy Run behavior exactly.

  /// A precomputed interval containing agg slot `agg_slot`'s value over all
  /// completions, or nullopt when the environment has none (legacy path).
  virtual std::optional<Interval> AggSlotRange(int agg_slot) const {
    (void)agg_slot;
    return std::nullopt;
  }

  /// Bounds on the final iteration count of Kleene variable `var_index`
  /// over all completions, or nullopt when unknown.
  virtual std::optional<Interval> KleeneCountRange(int var_index) const {
    (void)var_index;
    return std::nullopt;
  }

  /// True iff no future event can extend Kleene variable `var_index` beyond
  /// what AggSlotRange / KleeneCountRange already cover — the aggregate
  /// refinements above are total, not running prefixes.
  virtual bool KleeneFinal(int var_index) const {
    (void)var_index;
    return false;
  }
};

/// Derives an interval guaranteed to contain the value of `expr` for every
/// possible completion of the partial match described by `env`. Sound for
/// any expression the type checker accepts in output context (VarRef,
/// aggregates, arithmetic, comparisons, boolean logic, scalar functions);
/// falls back to Whole() where no finite bound exists (e.g. SUM over a
/// sign-indefinite attribute with unbounded future iterations).
///
/// `prog` is `expr` compiled to bytecode: when every reference in `expr` is
/// closed, the bound is the point the VM computes for it (on `vm`'s
/// registers). Closed leaves inside an open expression are evaluated the
/// same way, one instruction each.
///
/// Soundness caveat: bounds are only as good as the attribute ranges. With
/// declared ranges the pruner is exact; with learned ranges the engine must
/// not prune until ranges are warmed (the ranker enforces this).
Interval DeriveBounds(const Expr& expr, const BytecodeProgram& prog,
                      const BoundEnv& env, VmState* vm);

}  // namespace cepr

#endif  // CEPR_EXPR_INTERVAL_H_
