#ifndef CEPR_EXPR_VM_H_
#define CEPR_EXPR_VM_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/bytecode.h"
#include "expr/eval.h"

namespace cepr {

/// One VM register: a tag plus unboxed payloads. Strings are referenced
/// (`s` points into the program's constant pool, an event cell, or this
/// register's own `sown` backing store for computed strings) so the hot loop
/// never copies event data.
struct VmReg {
  ValueType tag = ValueType::kNull;
  bool b = false;
  int64_t i = 0;
  double f = 0.0;
  const std::string* s = nullptr;
  std::string sown;
};

/// Reusable register file. Each matcher owns one and passes it to every
/// evaluation, so registers are allocated once and recycled; not shareable
/// across threads.
class VmState {
 public:
  VmReg* Acquire(size_t num_regs) {
    if (regs_.size() < num_regs) regs_.resize(num_regs);
    return regs_.data();
  }

 private:
  std::vector<VmReg> regs_;
};

/// Evaluates a compiled expression. NULL propagates through arithmetic and
/// comparisons (a NULL operand yields NULL); AND/OR use three-valued logic
/// (FALSE AND NULL = FALSE, TRUE OR NULL = TRUE). Division / modulo by zero
/// yields NULL.
///
/// Integer arithmetic is exact and UB-free (the contract UBSan enforces):
/// int64 +/-/* detect overflow via __builtin_*_overflow and yield NULL;
/// `x % -1` is 0 for every x (including INT64_MIN, which would trap
/// natively); negation and ABS of INT64_MIN yield NULL; FLOOR/CEIL/ROUND
/// guard the float->int cast to [-2^63, 2^63) and yield NULL outside it
/// (NaN and ±inf included). Int/int division is double-typed, so
/// INT64_MIN / -1 is a finite float. Int-int ordering comparisons are
/// exact (never routed through double).
///
/// Returns an error Status (Internal) only for malformed trees (a runtime
/// type the checker would have rejected), which indicates a compiler bug
/// rather than a data condition.
Result<Value> VmEvaluate(const BytecodeProgram& prog, const EvalContext& ctx,
                         VmState* state);
/// Evaluates a predicate to a definite boolean: NULL counts as false, and a
/// non-BOOL result is an error.
Result<bool> VmEvaluatePredicate(const BytecodeProgram& prog,
                                 const EvalContext& ctx, VmState* state);
/// Evaluates an expression to a double for scoring. NULL, non-numeric
/// results and errors map to -infinity (so failed scores never enter a
/// top-k).
double VmEvaluateScore(const BytecodeProgram& prog, const EvalContext& ctx,
                       VmState* state);

/// Runs `code` against `ctx`, leaving the result in regs[0]; `regs` must
/// hold every register the code addresses. Returns nullptr on success, or
/// the static message VmEvaluate reports as Status::Internal. The pruner
/// runs a lone LeafInsn through it on one stack register, with no
/// constants and no heap allocation.
const char* VmExec(std::span<const Insn> code, std::span<const Value> constants,
                   const EvalContext& ctx, VmReg* regs);

}  // namespace cepr

#endif  // CEPR_EXPR_VM_H_
