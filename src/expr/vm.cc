#include "expr/vm.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

namespace cepr {

namespace {

// The semantics below are pinned by the reference tree walker in
// tests/testing/reference_eval.cc — every branch, check order and constant
// matches it (tests/expr/bytecode_equivalence_test.cc checks this
// differentially).
//
// Exact double bounds of int64: -2^63 is representable, 2^63 is the first
// double past INT64_MAX. The half-open test also rejects NaN.
constexpr double kInt64LowerBound = -9223372036854775808.0;
constexpr double kInt64UpperBound = 9223372036854775808.0;
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

inline void SetNull(VmReg& r) { r.tag = ValueType::kNull; }
inline void SetBool(VmReg& r, bool v) {
  r.tag = ValueType::kBool;
  r.b = v;
}
inline void SetInt(VmReg& r, int64_t v) {
  r.tag = ValueType::kInt;
  r.i = v;
}
inline void SetFloat(VmReg& r, double v) {
  r.tag = ValueType::kFloat;
  r.f = v;
}
inline void SetStringRef(VmReg& r, const std::string* s) {
  r.tag = ValueType::kString;
  r.s = s;
}
inline void SetOwnedString(VmReg& r, std::string v) {
  r.sown = std::move(v);
  r.s = &r.sown;
  r.tag = ValueType::kString;
}

inline bool IsNum(const VmReg& r) {
  return r.tag == ValueType::kInt || r.tag == ValueType::kFloat;
}
inline double NumOf(const VmReg& r) {
  return r.tag == ValueType::kInt ? static_cast<double>(r.i) : r.f;
}

// Packs a double into the static result type; NULL when an INT result is
// NaN or rounds outside int64.
inline void SetNumeric(VmReg& r, double x, ValueType type) {
  if (type == ValueType::kInt) {
    if (!(x >= kInt64LowerBound && x < kInt64UpperBound)) {
      SetNull(r);
      return;
    }
    SetInt(r, static_cast<int64_t>(llround(x)));
    return;
  }
  SetFloat(r, x);
}

inline void SetFromValue(VmReg& r, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      SetNull(r);
      return;
    case ValueType::kBool:
      SetBool(r, v.AsBool());
      return;
    case ValueType::kInt:
      SetInt(r, v.AsInt());
      return;
    case ValueType::kFloat:
      SetFloat(r, v.AsFloat());
      return;
    case ValueType::kString:
      SetStringRef(r, &v.AsString());
      return;
  }
  SetNull(r);
}

inline Value ToValue(const VmReg& r) {
  switch (r.tag) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value::Bool(r.b);
    case ValueType::kInt:
      return Value::Int(r.i);
    case ValueType::kFloat:
      return Value::Float(r.f);
    case ValueType::kString:
      return Value::String(*r.s);
  }
  return Value::Null();
}

// Loads the addressed attribute (or timestamp) of `event`; NULL if unbound.
inline void LoadAttr(VmReg& r, const Event* event, int attr_index) {
  if (event == nullptr) {
    SetNull(r);
    return;
  }
  if (attr_index == kTimestampAttr) {
    SetInt(r, event->timestamp());
    return;
  }
  SetFromValue(r, event->value(static_cast<size_t>(attr_index)));
}

}  // namespace

const char* VmExec(std::span<const Insn> code, std::span<const Value> constants,
                   const EvalContext& ctx, VmReg* regs) {
  const size_t n = code.size();
  for (size_t pc = 0; pc < n; ++pc) {
    const Insn& in = code[pc];
    VmReg& d = regs[in.dst];
    switch (in.op) {
      case OpCode::kLoadConst:
        SetFromValue(d, constants[static_cast<size_t>(in.imm)]);
        break;
      case OpCode::kLoadNull:
        SetNull(d);
        break;
      case OpCode::kLoadAttr:
        LoadAttr(d, ctx.SingleEvent(in.imm), in.imm2);
        break;
      case OpCode::kLoadIter: {
        const Event* ev =
            in.a == static_cast<int>(IterKind::kCurrent) ? ctx.KleeneCurrent(in.imm)
            : in.a == static_cast<int>(IterKind::kPrev)  ? ctx.KleeneLast(in.imm)
                                                         : ctx.KleeneFirst(in.imm);
        LoadAttr(d, ev, in.imm2);
        break;
      }

      case OpCode::kAggCount:
        SetInt(d, ctx.KleeneCount(in.imm));
        break;
      case OpCode::kAggFirst:
        LoadAttr(d, ctx.KleeneFirst(in.imm), in.imm2);
        break;
      case OpCode::kAggLast:
        LoadAttr(d, ctx.KleeneLast(in.imm), in.imm2);
        break;
      case OpCode::kAggAvg: {
        const int64_t count = ctx.KleeneCount(in.imm);
        if (count == 0) {
          SetNull(d);
          break;
        }
        if (in.imm2 < 0) return "AVG without slot";
        SetFloat(d, ctx.AggValue(in.imm2) / static_cast<double>(count));
        break;
      }
      case OpCode::kAggSum:
      case OpCode::kAggExtreme: {
        if (in.imm2 < 0) return "aggregate without slot";
        if (ctx.KleeneCount(in.imm) == 0) {
          SetNull(d);
          break;
        }
        const double v = ctx.AggValue(in.imm2);
        if (in.op == OpCode::kAggExtreme && !std::isfinite(v)) {
          SetNull(d);
          break;
        }
        SetNumeric(d, v, static_cast<ValueType>(in.a));
        break;
      }

      case OpCode::kNot: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (x.tag != ValueType::kBool) return "NOT on non-bool at runtime";
        SetBool(d, !x.b);
        break;
      }
      case OpCode::kNeg: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (!IsNum(x)) return "negation of non-numeric";
        if (x.tag == ValueType::kInt) {
          if (x.i == kInt64Min) {
            SetNull(d);
            break;
          }
          SetInt(d, -x.i);
          break;
        }
        SetFloat(d, -x.f);
        break;
      }

      case OpCode::kShortCircuit: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kBool && x.b == (in.b != 0)) {
          pc = static_cast<size_t>(in.imm) - 1;  // result already in dst
        }
        break;
      }
      case OpCode::kAndOrMerge: {
        const VmReg& l = regs[in.a];
        const VmReg& r = regs[in.b];
        const bool want = in.imm != 0;  // TRUE short-circuits OR
        if (r.tag == ValueType::kBool && r.b == want) {
          SetBool(d, want);
          break;
        }
        if (l.tag == ValueType::kNull || r.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (l.tag != ValueType::kBool || r.tag != ValueType::kBool) {
          return "AND/OR on non-bool at runtime";
        }
        const bool result = want ? (l.b || r.b) : (l.b && r.b);
        SetBool(d, result);
        break;
      }

      case OpCode::kEq:
      case OpCode::kNe: {
        const VmReg& x = regs[in.a];
        const VmReg& y = regs[in.b];
        const bool ne = in.op == OpCode::kNe;
        if (x.tag == ValueType::kNull || y.tag == ValueType::kNull) {
          // NULL = NULL is TRUE in CEPR (missing-vs-missing); NULL = x is NULL.
          if (x.tag == ValueType::kNull && y.tag == ValueType::kNull) {
            SetBool(d, !ne);
          } else {
            SetNull(d);
          }
          break;
        }
        bool eq;
        if (IsNum(x) && IsNum(y)) {
          eq = NumOf(x) == NumOf(y);  // Value::operator== compares via double
        } else if (x.tag != y.tag) {
          eq = false;
        } else if (x.tag == ValueType::kBool) {
          eq = x.b == y.b;
        } else {
          eq = *x.s == *y.s;
        }
        SetBool(d, ne ? !eq : eq);
        break;
      }

      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe: {
        const VmReg& x = regs[in.a];
        const VmReg& y = regs[in.b];
        if (x.tag == ValueType::kNull || y.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (x.tag == ValueType::kString && y.tag == ValueType::kString) {
          const int c = x.s->compare(*y.s);
          SetBool(d, in.op == OpCode::kCmpLt   ? c < 0
                     : in.op == OpCode::kCmpLe ? c <= 0
                     : in.op == OpCode::kCmpGt ? c > 0
                                               : c >= 0);
          break;
        }
        if (!IsNum(x) || !IsNum(y)) return "comparison on non-numeric at runtime";
        if (x.tag == ValueType::kInt && y.tag == ValueType::kInt) {
          SetBool(d, in.op == OpCode::kCmpLt   ? x.i < y.i
                     : in.op == OpCode::kCmpLe ? x.i <= y.i
                     : in.op == OpCode::kCmpGt ? x.i > y.i
                                               : x.i >= y.i);
          break;
        }
        const double a = NumOf(x);
        const double b = NumOf(y);
        SetBool(d, in.op == OpCode::kCmpLt   ? a < b
                   : in.op == OpCode::kCmpLe ? a <= b
                   : in.op == OpCode::kCmpGt ? a > b
                                             : a >= b);
        break;
      }

      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul: {
        const VmReg& x = regs[in.a];
        const VmReg& y = regs[in.b];
        if (x.tag == ValueType::kNull || y.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (!IsNum(x) || !IsNum(y)) return "arithmetic on non-numeric at runtime";
        const ValueType rt = static_cast<ValueType>(in.imm);
        if (x.tag == ValueType::kInt && y.tag == ValueType::kInt &&
            rt == ValueType::kInt) {
          int64_t r = 0;
          const bool overflow =
              in.op == OpCode::kAdd   ? __builtin_add_overflow(x.i, y.i, &r)
              : in.op == OpCode::kSub ? __builtin_sub_overflow(x.i, y.i, &r)
                                      : __builtin_mul_overflow(x.i, y.i, &r);
          if (overflow) {
            SetNull(d);
          } else {
            SetInt(d, r);
          }
          break;
        }
        const double a = NumOf(x);
        const double b = NumOf(y);
        const double r = in.op == OpCode::kAdd   ? a + b
                         : in.op == OpCode::kSub ? a - b
                                                 : a * b;
        SetNumeric(d, r, rt);
        break;
      }
      case OpCode::kDiv: {
        const VmReg& x = regs[in.a];
        const VmReg& y = regs[in.b];
        if (x.tag == ValueType::kNull || y.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (!IsNum(x) || !IsNum(y)) return "division on non-numeric at runtime";
        const double b = NumOf(y);
        if (b == 0.0) {
          SetNull(d);
          break;
        }
        SetFloat(d, NumOf(x) / b);
        break;
      }
      case OpCode::kMod: {
        const VmReg& x = regs[in.a];
        const VmReg& y = regs[in.b];
        if (x.tag == ValueType::kNull || y.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (x.tag != ValueType::kInt || y.tag != ValueType::kInt) {
          return "% on non-INT at runtime";
        }
        if (y.i == 0) {
          SetNull(d);
          break;
        }
        // x % -1 is 0 for every x, but INT64_MIN % -1 overflows the hardware
        // divide (SIGFPE on x86); answer directly.
        if (y.i == -1) {
          SetInt(d, 0);
          break;
        }
        SetInt(d, x.i % y.i);
        break;
      }

      case OpCode::kJump:
        pc = static_cast<size_t>(in.imm) - 1;
        break;
      case OpCode::kJumpIfNotTrue: {
        const VmReg& x = regs[in.a];
        if (!(x.tag == ValueType::kBool && x.b)) {
          pc = static_cast<size_t>(in.imm) - 1;
        }
        break;
      }
      case OpCode::kPromoteFloat: {
        VmReg& x = regs[in.a];
        if (x.tag == ValueType::kInt) SetFloat(x, static_cast<double>(x.i));
        break;
      }

      case OpCode::kFuncArgCheck: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kNull) {
          SetNull(d);
          pc = static_cast<size_t>(in.imm) - 1;
          break;
        }
        if (!IsNum(x)) return "function arg non-numeric";
        break;
      }
      case OpCode::kAbs: {
        const VmReg& x = regs[in.a];
        const ValueType rt = static_cast<ValueType>(in.imm);
        if (x.tag == ValueType::kInt && rt == ValueType::kInt) {
          if (x.i == kInt64Min) {
            SetNull(d);
          } else {
            SetInt(d, x.i < 0 ? -x.i : x.i);
          }
          break;
        }
        SetNumeric(d, std::fabs(NumOf(x)), rt);
        break;
      }
      case OpCode::kSqrt: {
        const double a = NumOf(regs[in.a]);
        if (a < 0) {
          SetNull(d);
        } else {
          SetFloat(d, std::sqrt(a));
        }
        break;
      }
      case OpCode::kLog: {
        const double a = NumOf(regs[in.a]);
        if (a <= 0) {
          SetNull(d);
        } else {
          SetFloat(d, std::log(a));
        }
        break;
      }
      case OpCode::kExp:
        SetFloat(d, std::exp(NumOf(regs[in.a])));
        break;
      case OpCode::kPow:
        SetFloat(d, std::pow(NumOf(regs[in.a]), NumOf(regs[in.b])));
        break;
      case OpCode::kFloor: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kInt) break;  // already exact, in place
        SetNumeric(d, std::floor(x.f), ValueType::kInt);
        break;
      }
      case OpCode::kCeil: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kInt) break;
        SetNumeric(d, std::ceil(x.f), ValueType::kInt);
        break;
      }
      case OpCode::kRound: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kInt) break;
        SetNumeric(d, x.f, ValueType::kInt);
        break;
      }
      case OpCode::kLeast:
      case OpCode::kGreatest: {
        const VmReg& x = regs[in.a];
        const VmReg& y = regs[in.b];
        const ValueType rt = static_cast<ValueType>(in.imm);
        const bool greatest = in.op == OpCode::kGreatest;
        if (x.tag == ValueType::kInt && y.tag == ValueType::kInt &&
            rt == ValueType::kInt) {
          SetInt(d, greatest ? std::max(x.i, y.i) : std::min(x.i, y.i));
          break;
        }
        const double a = NumOf(x);
        const double b = NumOf(y);
        SetNumeric(d, greatest ? std::max(a, b) : std::min(a, b), rt);
        break;
      }

      case OpCode::kUpperLower: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (x.tag != ValueType::kString) return "string function on non-string";
        std::string out = *x.s;
        for (char& c : out) {
          c = in.b != 0
                  ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                  : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        SetOwnedString(d, std::move(out));
        break;
      }
      case OpCode::kLength: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (x.tag != ValueType::kString) return "string function on non-string";
        SetInt(d, static_cast<int64_t>(x.s->size()));
        break;
      }
      case OpCode::kConcatInit:
        d.sown.clear();
        d.s = &d.sown;
        d.tag = ValueType::kString;
        break;
      case OpCode::kConcatAppend: {
        const VmReg& x = regs[in.a];
        if (x.tag == ValueType::kNull) {
          SetNull(d);
          pc = static_cast<size_t>(in.imm) - 1;
          break;
        }
        if (x.tag != ValueType::kString) return "string function on non-string";
        d.sown += *x.s;
        break;
      }
      case OpCode::kSubstr: {
        const VmReg& str = regs[in.a];
        const VmReg& start = regs[in.b];
        const VmReg& len = regs[in.imm2];
        if (str.tag == ValueType::kNull || start.tag == ValueType::kNull ||
            len.tag == ValueType::kNull) {
          SetNull(d);
          break;
        }
        if (str.tag != ValueType::kString || start.tag != ValueType::kInt ||
            len.tag != ValueType::kInt) {
          return "SUBSTR argument type mismatch";
        }
        const std::string& text = *str.s;
        // SQL-style 1-based start; out-of-range clamps.
        int64_t begin = start.i - 1;
        int64_t count = len.i;
        if (begin < 0) {
          count += begin;  // shift the window right
          begin = 0;
        }
        if (begin >= static_cast<int64_t>(text.size()) || count <= 0) {
          SetOwnedString(d, std::string());
          break;
        }
        SetOwnedString(
            d, text.substr(static_cast<size_t>(begin),
                           static_cast<size_t>(std::min<int64_t>(
                               count, static_cast<int64_t>(text.size()) - begin))));
        break;
      }
    }
  }
  return nullptr;
}

Result<Value> VmEvaluate(const BytecodeProgram& prog, const EvalContext& ctx,
                         VmState* state) {
  VmReg* regs = state->Acquire(prog.num_regs);
  if (const char* err = VmExec(prog.code, prog.constants, ctx, regs)) {
    return Status::Internal(err);
  }
  return ToValue(regs[0]);
}

Result<bool> VmEvaluatePredicate(const BytecodeProgram& prog,
                                 const EvalContext& ctx, VmState* state) {
  VmReg* regs = state->Acquire(prog.num_regs);
  if (const char* err = VmExec(prog.code, prog.constants, ctx, regs)) {
    return Status::Internal(err);
  }
  if (regs[0].tag == ValueType::kBool) return regs[0].b;
  if (regs[0].tag == ValueType::kNull) return false;
  return Status::Internal("predicate evaluated to non-bool (bytecode)");
}

double VmEvaluateScore(const BytecodeProgram& prog, const EvalContext& ctx,
                       VmState* state) {
  VmReg* regs = state->Acquire(prog.num_regs);
  if (VmExec(prog.code, prog.constants, ctx, regs) != nullptr) {
    return -std::numeric_limits<double>::infinity();
  }
  const VmReg& r = regs[0];
  if (r.tag == ValueType::kInt) return static_cast<double>(r.i);
  if (r.tag == ValueType::kFloat) return r.f;
  return -std::numeric_limits<double>::infinity();
}

}  // namespace cepr
