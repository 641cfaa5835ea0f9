#include "expr/bytecode.h"

#include <utility>

namespace cepr {

namespace {

// Max register index addressable by the 16-bit operand fields. Parsed trees
// stay far below it (see bytecode.h); only hand-built trees can reach it.
constexpr int kMaxReg = UINT16_MAX;

/// Single-pass tree-walking compiler. Registers follow a stack discipline:
/// node -> `dst`, children -> `dst`, `dst+1`, ... Forward jumps are patched
/// once their target is known.
class Compiler {
 public:
  explicit Compiler(BytecodeProgram* prog) : prog_(prog) {}

  bool Compile(const Expr& e, int dst) {
    if (dst > kMaxReg) return false;
    Touch(dst);
    switch (e.kind) {
      case ExprKind::kLiteral:
        Emit(OpCode::kLoadConst, dst, 0, 0, AddConst(e.literal));
        return true;

      case ExprKind::kVarRef:
      case ExprKind::kIterRef:
      case ExprKind::kAggregate:
        prog_->code.push_back(LeafInsn(e, dst));
        return true;

      case ExprKind::kUnary:
        if (!Compile(*e.children[0], dst)) return false;
        Emit(e.unary_op == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg, dst,
             dst, 0, 0);
        return true;

      case ExprKind::kBinary:
        return CompileBinary(e, dst);

      case ExprKind::kCase:
        return CompileCase(e, dst);

      case ExprKind::kFunc:
        return CompileFunc(e, dst);
    }
    return false;
  }

  void Finish() {
    prog_->num_regs = static_cast<uint16_t>(max_reg_ + 1);
  }

 private:
  size_t Emit(OpCode op, int dst, int a, int b, int32_t imm, int32_t imm2 = 0) {
    Insn insn;
    insn.op = op;
    insn.dst = static_cast<uint16_t>(dst);
    insn.a = static_cast<uint16_t>(a);
    insn.b = static_cast<uint16_t>(b);
    insn.imm = imm;
    insn.imm2 = imm2;
    prog_->code.push_back(insn);
    return prog_->code.size() - 1;
  }

  void PatchJump(size_t at) {
    prog_->code[at].imm = static_cast<int32_t>(prog_->code.size());
  }

  int32_t AddConst(const Value& v) {
    prog_->constants.push_back(v);
    return static_cast<int32_t>(prog_->constants.size() - 1);
  }

  void Touch(int reg) {
    if (reg > max_reg_) max_reg_ = reg;
  }

  bool CompileBinary(const Expr& e, int dst) {
    if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
      const int want = e.binary_op == BinaryOp::kOr ? 1 : 0;
      if (!Compile(*e.children[0], dst)) return false;
      const size_t sc = Emit(OpCode::kShortCircuit, dst, dst, want, 0);
      if (!Compile(*e.children[1], dst + 1)) return false;
      Emit(OpCode::kAndOrMerge, dst, dst, dst + 1, want);
      PatchJump(sc);
      return true;
    }

    if (!Compile(*e.children[0], dst)) return false;
    if (!Compile(*e.children[1], dst + 1)) return false;
    const int32_t rt = static_cast<int32_t>(e.result_type);
    switch (e.binary_op) {
      case BinaryOp::kEq:
        Emit(OpCode::kEq, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kNe:
        Emit(OpCode::kNe, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kLt:
        Emit(OpCode::kCmpLt, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kLe:
        Emit(OpCode::kCmpLe, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kGt:
        Emit(OpCode::kCmpGt, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kGe:
        Emit(OpCode::kCmpGe, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kAdd:
        Emit(OpCode::kAdd, dst, dst, dst + 1, rt);
        return true;
      case BinaryOp::kSub:
        Emit(OpCode::kSub, dst, dst, dst + 1, rt);
        return true;
      case BinaryOp::kMul:
        Emit(OpCode::kMul, dst, dst, dst + 1, rt);
        return true;
      case BinaryOp::kDiv:
        Emit(OpCode::kDiv, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kMod:
        Emit(OpCode::kMod, dst, dst, dst + 1, 0);
        return true;
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        break;  // handled above
    }
    return false;
  }

  bool CompileCase(const Expr& e, int dst) {
    const size_t pairs = (e.children.size() - (e.has_else ? 1 : 0)) / 2;
    std::vector<size_t> to_end;
    for (size_t i = 0; i < pairs; ++i) {
      if (!Compile(*e.children[2 * i], dst)) return false;
      const size_t skip = Emit(OpCode::kJumpIfNotTrue, 0, dst, 0, 0);
      if (!Compile(*e.children[2 * i + 1], dst)) return false;
      if (e.result_type == ValueType::kFloat) {
        Emit(OpCode::kPromoteFloat, 0, dst, 0, 0);
      }
      to_end.push_back(Emit(OpCode::kJump, 0, 0, 0, 0));
      PatchJump(skip);
    }
    if (e.has_else) {
      if (!Compile(*e.children.back(), dst)) return false;
      if (e.result_type == ValueType::kFloat) {
        Emit(OpCode::kPromoteFloat, 0, dst, 0, 0);
      }
    } else {
      Emit(OpCode::kLoadNull, dst, 0, 0, 0);
    }
    for (size_t at : to_end) PatchJump(at);
    return true;
  }

  bool CompileFunc(const Expr& e, int dst) {
    const int32_t rt = static_cast<int32_t>(e.result_type);
    switch (e.func) {
      case ScalarFunc::kUpper:
      case ScalarFunc::kLower:
        if (!Compile(*e.children[0], dst)) return false;
        Emit(OpCode::kUpperLower, dst, dst, e.func == ScalarFunc::kUpper, 0);
        return true;
      case ScalarFunc::kLength:
        if (!Compile(*e.children[0], dst)) return false;
        Emit(OpCode::kLength, dst, dst, 0, 0);
        return true;
      case ScalarFunc::kConcat: {
        Emit(OpCode::kConcatInit, dst, 0, 0, 0);
        std::vector<size_t> to_end;
        for (const auto& c : e.children) {
          if (!Compile(*c, dst + 1)) return false;
          to_end.push_back(Emit(OpCode::kConcatAppend, dst, dst + 1, 0, 0));
        }
        for (size_t at : to_end) PatchJump(at);
        return true;
      }
      case ScalarFunc::kSubstr:
        if (!Compile(*e.children[0], dst)) return false;
        if (!Compile(*e.children[1], dst + 1)) return false;
        if (!Compile(*e.children[2], dst + 2)) return false;
        Emit(OpCode::kSubstr, dst, dst, dst + 1, 0, dst + 2);
        return true;
      default:
        break;
    }

    // Numeric functions: evaluate each argument, vetting it (NULL argument
    // short-circuits the whole call to NULL — exactly the AST loop).
    std::vector<size_t> to_end;
    for (size_t i = 0; i < e.children.size(); ++i) {
      const int r = dst + static_cast<int>(i);
      if (!Compile(*e.children[i], r)) return false;
      to_end.push_back(Emit(OpCode::kFuncArgCheck, dst, r, 0, 0));
    }
    switch (e.func) {
      case ScalarFunc::kAbs:
        Emit(OpCode::kAbs, dst, dst, 0, rt);
        break;
      case ScalarFunc::kSqrt:
        Emit(OpCode::kSqrt, dst, dst, 0, 0);
        break;
      case ScalarFunc::kLog:
        Emit(OpCode::kLog, dst, dst, 0, 0);
        break;
      case ScalarFunc::kExp:
        Emit(OpCode::kExp, dst, dst, 0, 0);
        break;
      case ScalarFunc::kPow:
        Emit(OpCode::kPow, dst, dst, dst + 1, 0);
        break;
      case ScalarFunc::kFloor:
        Emit(OpCode::kFloor, dst, dst, 0, 0);
        break;
      case ScalarFunc::kCeil:
        Emit(OpCode::kCeil, dst, dst, 0, 0);
        break;
      case ScalarFunc::kRound:
        Emit(OpCode::kRound, dst, dst, 0, 0);
        break;
      case ScalarFunc::kLeast:
        Emit(OpCode::kLeast, dst, dst, dst + 1, rt);
        break;
      case ScalarFunc::kGreatest:
        Emit(OpCode::kGreatest, dst, dst, dst + 1, rt);
        break;
      default:
        return false;
    }
    for (size_t at : to_end) PatchJump(at);
    return true;
  }

  BytecodeProgram* prog_;
  int max_reg_ = 0;
};

}  // namespace

Insn LeafInsn(const Expr& leaf, int dst) {
  Insn in;
  in.dst = static_cast<uint16_t>(dst);
  in.imm = leaf.var_index;
  in.imm2 = leaf.attr_index;
  if (leaf.kind == ExprKind::kVarRef) {
    in.op = OpCode::kLoadAttr;
    return in;
  }
  if (leaf.kind == ExprKind::kIterRef) {
    in.op = OpCode::kLoadIter;
    in.a = static_cast<uint16_t>(leaf.iter_kind);
    return in;
  }
  switch (leaf.agg_func) {
    case AggFunc::kCount:
      in.op = OpCode::kAggCount;
      return in;
    case AggFunc::kFirst:
      in.op = OpCode::kAggFirst;
      return in;
    case AggFunc::kLast:
      in.op = OpCode::kAggLast;
      return in;
    case AggFunc::kAvg:
      in.op = OpCode::kAggAvg;
      break;
    case AggFunc::kSum:
      in.op = OpCode::kAggSum;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      in.op = OpCode::kAggExtreme;
      break;
  }
  // Slot aggregates read accumulator `agg_slot`, packed into `result_type`.
  in.a = static_cast<uint16_t>(leaf.result_type);
  in.imm2 = leaf.agg_slot;
  return in;
}

Result<BytecodeProgram> CompileToBytecode(const Expr& expr) {
  BytecodeProgram prog;
  Compiler compiler(&prog);
  if (!compiler.Compile(expr, 0)) {
    return Status::Internal("expression does not fit the bytecode register file: " +
                            expr.ToString());
  }
  compiler.Finish();
  return prog;
}

Result<BytecodeProgramPtr> CompileToBytecodeShared(const Expr& expr) {
  CEPR_ASSIGN_OR_RETURN(BytecodeProgram prog, CompileToBytecode(expr));
  return BytecodeProgramPtr(
      std::make_shared<const BytecodeProgram>(std::move(prog)));
}

}  // namespace cepr
