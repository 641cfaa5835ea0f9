#ifndef CEPR_EXPR_FOLD_H_
#define CEPR_EXPR_FOLD_H_

#include "expr/expr.h"

namespace cepr {

/// Compile-time expression simplification, run by the query compiler after
/// type checking and before predicate decomposition:
///
///  * constant subtrees collapse to literals (`2 * 3 + 1` -> `7`,
///    `UPPER('ibm')` -> `'IBM'`, `1 > 2` -> `FALSE`), compiled and run on
///    the bytecode VM that evaluates them at run time, so semantics (NULL
///    propagation, division by zero, ...) agree exactly;
///  * boolean identities shrink the tree: `TRUE AND x` -> `x`,
///    `FALSE AND x` -> `FALSE`, `TRUE OR x` -> `TRUE`, `FALSE OR x` -> `x`,
///    `NOT TRUE` -> `FALSE`;
///  * CASE drops WHEN arms whose condition folded to FALSE and collapses
///    entirely when an arm folded to TRUE.
///
/// The input must be resolved and type checked; the returned tree keeps
/// the original result_type. Folding never changes evaluation results.
ExprPtr FoldConstants(ExprPtr expr);

}  // namespace cepr

#endif  // CEPR_EXPR_FOLD_H_
