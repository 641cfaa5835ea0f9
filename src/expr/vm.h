#ifndef CEPR_EXPR_VM_H_
#define CEPR_EXPR_VM_H_

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

/// Bytecode twins of Evaluate / EvaluatePredicate / EvaluateScore (see
/// expr/eval.h for the semantics). Guaranteed bit-identical to the AST
/// evaluator — same values, same NULL propagation, same overflow-to-NULL
/// arithmetic, and error statuses in exactly the same situations — which is
/// what lets the matcher fall back to the AST walker for an expression
/// Compile emitted no program for without changing any ranked output.
Result<Value> VmEvaluate(const BytecodeProgram& prog, const EvalContext& ctx,
                         VmState* state);
Result<bool> VmEvaluatePredicate(const BytecodeProgram& prog,
                                 const EvalContext& ctx, VmState* state);
double VmEvaluateScore(const BytecodeProgram& prog, const EvalContext& ctx,
                       VmState* state);

}  // namespace cepr

#endif  // CEPR_EXPR_VM_H_
