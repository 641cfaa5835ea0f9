#include "expr/eval.h"

namespace cepr {

bool IsEventOnlyPredicate(const Expr& expr, int var_index, bool is_kleene) {
  switch (expr.kind) {
    case ExprKind::kVarRef:
      // A plain reference is the candidate only for a single variable (for
      // Kleene variables the candidate answers v[i], not v).
      return !is_kleene && expr.var_index == var_index;
    case ExprKind::kIterRef:
      return is_kleene && expr.var_index == var_index &&
             expr.iter_kind == IterKind::kCurrent;
    case ExprKind::kAggregate:
      return false;  // depends on the run's accepted iterations
    default:
      break;
  }
  for (const auto& child : expr.children) {
    if (!IsEventOnlyPredicate(*child, var_index, is_kleene)) return false;
  }
  return true;
}

}  // namespace cepr
