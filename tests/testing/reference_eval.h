#ifndef CEPR_TESTS_TESTING_REFERENCE_EVAL_H_
#define CEPR_TESTS_TESTING_REFERENCE_EVAL_H_

#include "common/result.h"
#include "expr/eval.h"
#include "expr/expr.h"

namespace cepr {
namespace testing {

/// The reference semantics of CEPR-QL expressions: a plain recursive walk
/// of the resolved, type-checked tree. The engine never runs it — every
/// expression is compiled to bytecode and executed by the VM (expr/vm.h).
/// It stays here as the independent oracle the VM is checked against,
/// value for value and status for status
/// (tests/expr/bytecode_equivalence_test.cc and the evaluator unit tests).
///
/// The contract is VmEvaluate's: NULL propagation, three-valued AND/OR,
/// NULL on division by zero and on int64 overflow, and an Internal error
/// only for malformed trees.
Result<Value> ReferenceEvaluate(const Expr& expr, const EvalContext& ctx);

/// VmEvaluatePredicate's reference: NULL counts as false, a non-BOOL root
/// is an error.
Result<bool> ReferenceEvaluatePredicate(const Expr& expr, const EvalContext& ctx);

/// VmEvaluateScore's reference: NULL, non-numeric results and errors map to
/// -infinity.
double ReferenceEvaluateScore(const Expr& expr, const EvalContext& ctx);

/// Same type and same payload bits (NaN equals NaN, -0.0 differs from 0.0).
bool BitIdentical(const Value& a, const Value& b);

/// The production path for expression unit tests: compiles `expr` to
/// bytecode and runs it on the VM against `ctx`, returning the VM's answer.
/// Adds a test failure if compilation fails or if the reference walker
/// disagrees (a different value, or a different status code).
Result<Value> CheckedEvaluate(const Expr& expr, const EvalContext& ctx);
Result<bool> CheckedEvaluatePredicate(const Expr& expr, const EvalContext& ctx);
double CheckedEvaluateScore(const Expr& expr, const EvalContext& ctx);

}  // namespace testing
}  // namespace cepr

#endif  // CEPR_TESTS_TESTING_REFERENCE_EVAL_H_
