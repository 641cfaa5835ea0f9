#ifndef CEPR_EXPR_BYTECODE_H_
#define CEPR_EXPR_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "event/value.h"
#include "expr/expr.h"

namespace cepr {

/// Flat register bytecode for expression trees — the compiled form the VM in
/// expr/vm.h executes. The VM is the only run-time evaluator: every
/// predicate, SELECT item and RANK BY score is compiled once per query
/// (plan/compiler.cc), constant folding compiles its literal-only subtrees,
/// and the pruner runs the score's program. Programs are immutable after
/// compilation; execution is read-only, so one program can be shared by
/// every matcher evaluating the query.
///
/// Semantics are pinned by a reference tree walker kept with the tests
/// (tests/testing/reference_eval.h): same values, same NULL propagation,
/// same three-valued AND/OR, same overflow-to-NULL arithmetic contract,
/// and an error Status exactly where the reference produces one
/// (tests/expr/bytecode_equivalence_test.cc checks this differentially).
///
/// Register model: tree-shaped evaluation with a stack discipline — an
/// expression's result lands in register `dst`, its children evaluate into
/// `dst`, `dst+1`, ... so the register file is only as deep as the tree.
/// Each level adds at most two registers (SUBSTR's third argument), so a
/// tree within the parser's kMaxExprHeight needs at most 1025, well inside
/// the 16-bit operand fields.
enum class OpCode : uint8_t {
  // Loads.
  kLoadConst,  // dst = constants[imm]
  kLoadNull,   // dst = NULL
  kLoadAttr,   // dst = attr imm2 of ctx.SingleEvent(imm); NULL if unbound
  kLoadIter,   // dst = attr imm2 of Kleene{Current|Prev|First}(imm); a=IterKind

  // Aggregates (mirror EvalAggregate's check order exactly).
  kAggCount,    // dst = Int(ctx.KleeneCount(imm))
  kAggFirst,    // dst = attr imm2 of ctx.KleeneFirst(imm)
  kAggLast,     // dst = attr imm2 of ctx.KleeneLast(imm)
  kAggAvg,      // imm=var, imm2=slot: count==0 -> NULL; slot<0 -> error
  kAggSum,      // imm=var, imm2=slot, a=result ValueType
  kAggExtreme,  // MIN/MAX: as kAggSum but non-finite accumulator -> NULL

  // Unary.
  kNot,  // dst = !regs[a] (NULL -> NULL, non-bool -> error)
  kNeg,  // dst = -regs[a] (INT64_MIN -> NULL)

  // Lazy AND/OR. `b` carries the short-circuit value (1 for OR, 0 for AND).
  kShortCircuit,  // if regs[a] == Bool(b): pc = imm (result already in dst)
  kAndOrMerge,    // dst = merge(regs[a], regs[b]); imm=1 for OR

  // Comparisons (NULL -> NULL; int-int native, mixed numeric via double,
  // string-string lexicographic, anything else -> error).
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kEq,  // NULL=NULL is TRUE, NULL=x is NULL; numerics compare via double
  kNe,

  // Arithmetic (imm = static result ValueType; int overflow -> NULL).
  kAdd,
  kSub,
  kMul,
  kDiv,  // by zero -> NULL; always float
  kMod,  // by zero -> NULL; INT64_MIN % -1 == 0

  // Control flow for CASE.
  kJump,           // pc = imm
  kJumpIfNotTrue,  // if regs[a] is not Bool(true): pc = imm
  kPromoteFloat,   // if regs[a] is Int: regs[a] = Float (CASE promotion)

  // Numeric scalar functions. Each arg was vetted by kFuncArgCheck first.
  kFuncArgCheck,  // if regs[a] NULL: regs[dst]=NULL, pc=imm; non-numeric -> error
  kAbs,           // imm = result ValueType
  kSqrt,
  kLog,
  kExp,
  kPow,
  kFloor,
  kCeil,
  kRound,
  kLeast,     // imm = result ValueType
  kGreatest,  // imm = result ValueType

  // String functions.
  kUpperLower,    // b=1 for UPPER; NULL -> NULL
  kLength,        // NULL -> NULL
  kConcatInit,    // regs[dst] = ""
  kConcatAppend,  // regs[dst] += regs[a]; if regs[a] NULL: dst=NULL, pc=imm
  kSubstr,        // dst = substr(regs[a], regs[b], regs[imm2]); NULL args -> NULL
};

struct Insn {
  OpCode op = OpCode::kLoadNull;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  int32_t imm = 0;   // jump target / var_index / constant index / result type
  int32_t imm2 = 0;  // attr_index / agg_slot / third register
};

struct BytecodeProgram {
  std::vector<Insn> code;
  std::vector<Value> constants;
  /// Registers the VM must provide (max stack depth of the tree).
  uint16_t num_regs = 0;
};

using BytecodeProgramPtr = std::shared_ptr<const BytecodeProgram>;

/// Compiles a resolved, type-checked expression tree to bytecode. Succeeds
/// for every tree the parser and type checker accept; fails
/// (Status::Internal) only for hand-built trees past the 16-bit register
/// file or with an unknown node.
Result<BytecodeProgram> CompileToBytecode(const Expr& expr);

/// CompileToBytecode into a shared immutable program.
Result<BytecodeProgramPtr> CompileToBytecodeShared(const Expr& expr);

/// The single instruction that loads a reference leaf (kVarRef, kIterRef
/// or kAggregate) into register `dst`. It reads no register and no
/// constant, so the pruner runs it on its own to take a closed leaf's
/// point value (see VmExec).
Insn LeafInsn(const Expr& leaf, int dst = 0);

}  // namespace cepr

#endif  // CEPR_EXPR_BYTECODE_H_
