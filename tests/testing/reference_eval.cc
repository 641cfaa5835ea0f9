#include "testing/reference_eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "expr/bytecode.h"
#include "expr/vm.h"

namespace cepr {
namespace testing {

namespace {

bool IsNumeric(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kFloat;
}

double Num(const Value& v) {
  return v.type() == ValueType::kInt ? static_cast<double>(v.AsInt()) : v.AsFloat();
}

// Arithmetic contract (matched bit-for-bit by the bytecode VM in expr/vm.cc):
// pure-integer +, -, *, %, ABS, LEAST/GREATEST and unary negation run natively
// in int64 and yield NULL on overflow, matching the div/mod-by-zero
// convention. INT64_MIN % -1 is 0. Repacking a double into an INT result
// (FLOOR/CEIL/ROUND, int-typed aggregates, mixed-type LEAST/GREATEST) yields
// NULL when the value is NaN or rounds outside the int64 range.

// Exact double bounds of int64: -2^63 is representable, 2^63 is the first
// double past INT64_MAX. The half-open test also rejects NaN.
constexpr double kInt64LowerBound = -9223372036854775808.0;
constexpr double kInt64UpperBound = 9223372036854775808.0;

// Packages a double into the statically determined result type.
Value MakeNumeric(double x, ValueType type) {
  if (type == ValueType::kInt) {
    if (!(x >= kInt64LowerBound && x < kInt64UpperBound)) return Value::Null();
    return Value::Int(static_cast<int64_t>(llround(x)));
  }
  return Value::Float(x);
}

// Fetches the addressed attribute (or timestamp) from an event.
Value FetchAttr(const Event* event, int attr_index) {
  if (event == nullptr) return Value::Null();
  if (attr_index == kTimestampAttr) return Value::Int(event->timestamp());
  return event->value(static_cast<size_t>(attr_index));
}

Result<Value> EvalNode(const Expr& e, const EvalContext& ctx);

Result<Value> EvalBinary(const Expr& e, const EvalContext& ctx) {
  // Three-valued AND/OR need lazy handling of NULL, so do them first.
  if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
    CEPR_ASSIGN_OR_RETURN(const Value lhs, EvalNode(*e.children[0], ctx));
    const bool want_short = e.binary_op == BinaryOp::kOr;  // TRUE short-circuits OR
    if (lhs.type() == ValueType::kBool && lhs.AsBool() == want_short) {
      return Value::Bool(want_short);
    }
    CEPR_ASSIGN_OR_RETURN(const Value rhs, EvalNode(*e.children[1], ctx));
    if (rhs.type() == ValueType::kBool && rhs.AsBool() == want_short) {
      return Value::Bool(want_short);
    }
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    if (lhs.type() != ValueType::kBool || rhs.type() != ValueType::kBool) {
      return Status::Internal("AND/OR on non-bool at runtime: " + e.ToString());
    }
    return Value::Bool(e.binary_op == BinaryOp::kAnd ? (lhs.AsBool() && rhs.AsBool())
                                                     : (lhs.AsBool() || rhs.AsBool()));
  }

  CEPR_ASSIGN_OR_RETURN(const Value lhs, EvalNode(*e.children[0], ctx));
  CEPR_ASSIGN_OR_RETURN(const Value rhs, EvalNode(*e.children[1], ctx));

  switch (e.binary_op) {
    case BinaryOp::kEq:
      if (lhs.is_null() || rhs.is_null()) {
        // NULL = NULL is TRUE in CEPR (missing-vs-missing); NULL = x is NULL.
        return (lhs.is_null() && rhs.is_null()) ? Value::Bool(true) : Value::Null();
      }
      return Value::Bool(lhs == rhs);
    case BinaryOp::kNe:
      if (lhs.is_null() || rhs.is_null()) {
        return (lhs.is_null() && rhs.is_null()) ? Value::Bool(false) : Value::Null();
      }
      return Value::Bool(lhs != rhs);
    default:
      break;
  }

  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  switch (e.binary_op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (lhs.type() == ValueType::kString && rhs.type() == ValueType::kString) {
        const int c = lhs.AsString().compare(rhs.AsString());
        switch (e.binary_op) {
          case BinaryOp::kLt:
            return Value::Bool(c < 0);
          case BinaryOp::kLe:
            return Value::Bool(c <= 0);
          case BinaryOp::kGt:
            return Value::Bool(c > 0);
          default:
            return Value::Bool(c >= 0);
        }
      }
      if (!IsNumeric(lhs) || !IsNumeric(rhs)) {
        return Status::Internal("comparison on non-numeric at runtime: " +
                                e.ToString());
      }
      if (lhs.type() == ValueType::kInt && rhs.type() == ValueType::kInt) {
        // Native compare: the double path is lossy beyond 2^53.
        const int64_t a = lhs.AsInt();
        const int64_t b = rhs.AsInt();
        switch (e.binary_op) {
          case BinaryOp::kLt:
            return Value::Bool(a < b);
          case BinaryOp::kLe:
            return Value::Bool(a <= b);
          case BinaryOp::kGt:
            return Value::Bool(a > b);
          default:
            return Value::Bool(a >= b);
        }
      }
      const double a = Num(lhs);
      const double b = Num(rhs);
      switch (e.binary_op) {
        case BinaryOp::kLt:
          return Value::Bool(a < b);
        case BinaryOp::kLe:
          return Value::Bool(a <= b);
        case BinaryOp::kGt:
          return Value::Bool(a > b);
        default:
          return Value::Bool(a >= b);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      if (!IsNumeric(lhs) || !IsNumeric(rhs)) {
        return Status::Internal("arithmetic on non-numeric at runtime: " +
                                e.ToString());
      }
      if (lhs.type() == ValueType::kInt && rhs.type() == ValueType::kInt &&
          e.result_type == ValueType::kInt) {
        const int64_t a = lhs.AsInt();
        const int64_t b = rhs.AsInt();
        int64_t r = 0;
        const bool overflow =
            e.binary_op == BinaryOp::kAdd   ? __builtin_add_overflow(a, b, &r)
            : e.binary_op == BinaryOp::kSub ? __builtin_sub_overflow(a, b, &r)
                                            : __builtin_mul_overflow(a, b, &r);
        if (overflow) return Value::Null();
        return Value::Int(r);
      }
      const double a = Num(lhs);
      const double b = Num(rhs);
      const double r = e.binary_op == BinaryOp::kAdd   ? a + b
                       : e.binary_op == BinaryOp::kSub ? a - b
                                                       : a * b;
      return MakeNumeric(r, e.result_type);
    }
    case BinaryOp::kDiv: {
      if (!IsNumeric(lhs) || !IsNumeric(rhs)) {
        return Status::Internal("division on non-numeric at runtime: " +
                                e.ToString());
      }
      const double b = Num(rhs);
      if (b == 0.0) return Value::Null();
      return Value::Float(Num(lhs) / b);
    }
    case BinaryOp::kMod: {
      if (lhs.type() != ValueType::kInt || rhs.type() != ValueType::kInt) {
        return Status::Internal("% on non-INT at runtime: " + e.ToString());
      }
      if (rhs.AsInt() == 0) return Value::Null();
      // x % -1 is 0 for every x, but INT64_MIN % -1 overflows the hardware
      // divide (SIGFPE on x86); answer directly.
      if (rhs.AsInt() == -1) return Value::Int(0);
      return Value::Int(lhs.AsInt() % rhs.AsInt());
    }
    default:
      return Status::Internal("unhandled binary op at runtime");
  }
}

Result<Value> EvalAggregate(const Expr& e, const EvalContext& ctx) {
  switch (e.agg_func) {
    case AggFunc::kCount:
      return Value::Int(ctx.KleeneCount(e.var_index));
    case AggFunc::kFirst:
      return FetchAttr(ctx.KleeneFirst(e.var_index), e.attr_index);
    case AggFunc::kLast:
      return FetchAttr(ctx.KleeneLast(e.var_index), e.attr_index);
    case AggFunc::kAvg: {
      const int64_t n = ctx.KleeneCount(e.var_index);
      if (n == 0) return Value::Null();
      if (e.agg_slot < 0) return Status::Internal("AVG without slot: " + e.ToString());
      return Value::Float(ctx.AggValue(e.agg_slot) / static_cast<double>(n));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
    case AggFunc::kSum: {
      if (e.agg_slot < 0) {
        return Status::Internal("aggregate without slot: " + e.ToString());
      }
      if (ctx.KleeneCount(e.var_index) == 0) return Value::Null();
      const double v = ctx.AggValue(e.agg_slot);
      if (!std::isfinite(v) && e.agg_func != AggFunc::kSum) return Value::Null();
      return MakeNumeric(v, e.result_type);
    }
  }
  return Status::Internal("unhandled aggregate at runtime");
}

Result<Value> EvalNode(const Expr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;

    case ExprKind::kVarRef:
      return FetchAttr(ctx.SingleEvent(e.var_index), e.attr_index);

    case ExprKind::kIterRef: {
      const Event* ev = e.iter_kind == IterKind::kCurrent
                            ? ctx.KleeneCurrent(e.var_index)
                        : e.iter_kind == IterKind::kPrev
                            ? ctx.KleeneLast(e.var_index)
                            : ctx.KleeneFirst(e.var_index);
      return FetchAttr(ev, e.attr_index);
    }

    case ExprKind::kAggregate:
      return EvalAggregate(e, ctx);

    case ExprKind::kUnary: {
      CEPR_ASSIGN_OR_RETURN(const Value v, EvalNode(*e.children[0], ctx));
      if (v.is_null()) return Value::Null();
      if (e.unary_op == UnaryOp::kNot) {
        if (v.type() != ValueType::kBool) {
          return Status::Internal("NOT on non-bool at runtime");
        }
        return Value::Bool(!v.AsBool());
      }
      if (!IsNumeric(v)) return Status::Internal("negation of non-numeric");
      if (v.type() == ValueType::kInt) {
        if (v.AsInt() == std::numeric_limits<int64_t>::min()) return Value::Null();
        return Value::Int(-v.AsInt());
      }
      return Value::Float(-v.AsFloat());
    }

    case ExprKind::kBinary:
      return EvalBinary(e, ctx);

    case ExprKind::kCase: {
      const size_t pairs = (e.children.size() - (e.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        CEPR_ASSIGN_OR_RETURN(const Value cond, EvalNode(*e.children[2 * i], ctx));
        // NULL conditions are not satisfied, as in predicates.
        if (cond.type() == ValueType::kBool && cond.AsBool()) {
          CEPR_ASSIGN_OR_RETURN(Value v, EvalNode(*e.children[2 * i + 1], ctx));
          // Promote INT branch values when the CASE's static type is FLOAT.
          if (e.result_type == ValueType::kFloat && v.type() == ValueType::kInt) {
            return Value::Float(Num(v));
          }
          return v;
        }
      }
      if (!e.has_else) return Value::Null();
      CEPR_ASSIGN_OR_RETURN(Value v, EvalNode(*e.children.back(), ctx));
      if (IsNumeric(v) && e.result_type == ValueType::kFloat &&
          v.type() == ValueType::kInt) {
        return Value::Float(Num(v));
      }
      return v;
    }

    case ExprKind::kFunc: {
      // String functions take string-typed arguments; handle them before
      // the numeric path.
      switch (e.func) {
        case ScalarFunc::kUpper:
        case ScalarFunc::kLower: {
          CEPR_ASSIGN_OR_RETURN(const Value v, EvalNode(*e.children[0], ctx));
          if (v.is_null()) return Value::Null();
          std::string out = v.AsString();
          for (char& c : out) {
            c = e.func == ScalarFunc::kUpper
                    ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                    : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          }
          return Value::String(std::move(out));
        }
        case ScalarFunc::kLength: {
          CEPR_ASSIGN_OR_RETURN(const Value v, EvalNode(*e.children[0], ctx));
          if (v.is_null()) return Value::Null();
          return Value::Int(static_cast<int64_t>(v.AsString().size()));
        }
        case ScalarFunc::kConcat: {
          std::string out;
          for (const auto& c : e.children) {
            CEPR_ASSIGN_OR_RETURN(const Value v, EvalNode(*c, ctx));
            if (v.is_null()) return Value::Null();
            out += v.AsString();
          }
          return Value::String(std::move(out));
        }
        case ScalarFunc::kSubstr: {
          CEPR_ASSIGN_OR_RETURN(const Value str, EvalNode(*e.children[0], ctx));
          CEPR_ASSIGN_OR_RETURN(const Value start, EvalNode(*e.children[1], ctx));
          CEPR_ASSIGN_OR_RETURN(const Value len, EvalNode(*e.children[2], ctx));
          if (str.is_null() || start.is_null() || len.is_null()) {
            return Value::Null();
          }
          const std::string& text = str.AsString();
          // SQL-style 1-based start; out-of-range clamps.
          int64_t begin = start.AsInt() - 1;
          int64_t count = len.AsInt();
          if (begin < 0) {
            count += begin;  // shift the window right
            begin = 0;
          }
          if (begin >= static_cast<int64_t>(text.size()) || count <= 0) {
            return Value::String("");
          }
          return Value::String(text.substr(
              static_cast<size_t>(begin),
              static_cast<size_t>(std::min<int64_t>(
                  count, static_cast<int64_t>(text.size()) - begin))));
        }
        default:
          break;
      }

      std::vector<Value> vals;
      vals.reserve(e.children.size());
      for (const auto& c : e.children) {
        CEPR_ASSIGN_OR_RETURN(const Value v, EvalNode(*c, ctx));
        if (v.is_null()) return Value::Null();
        if (!IsNumeric(v)) return Status::Internal("function arg non-numeric");
        vals.push_back(v);
      }
      const auto num = [&vals](size_t i) { return Num(vals[i]); };
      const bool all_int = [&vals] {
        for (const Value& v : vals) {
          if (v.type() != ValueType::kInt) return false;
        }
        return true;
      }();
      switch (e.func) {
        case ScalarFunc::kAbs:
          if (all_int && e.result_type == ValueType::kInt) {
            const int64_t a = vals[0].AsInt();
            if (a == std::numeric_limits<int64_t>::min()) return Value::Null();
            return Value::Int(a < 0 ? -a : a);
          }
          return MakeNumeric(std::fabs(num(0)), e.result_type);
        case ScalarFunc::kSqrt:
          if (num(0) < 0) return Value::Null();
          return Value::Float(std::sqrt(num(0)));
        case ScalarFunc::kLog:
          if (num(0) <= 0) return Value::Null();
          return Value::Float(std::log(num(0)));
        case ScalarFunc::kExp:
          return Value::Float(std::exp(num(0)));
        case ScalarFunc::kPow:
          return Value::Float(std::pow(num(0), num(1)));
        case ScalarFunc::kFloor:
          // Already-integral operands pass through exactly; the double path
          // would corrupt values beyond 2^53.
          if (vals[0].type() == ValueType::kInt) return vals[0];
          return MakeNumeric(std::floor(num(0)), ValueType::kInt);
        case ScalarFunc::kCeil:
          if (vals[0].type() == ValueType::kInt) return vals[0];
          return MakeNumeric(std::ceil(num(0)), ValueType::kInt);
        case ScalarFunc::kRound:
          if (vals[0].type() == ValueType::kInt) return vals[0];
          return MakeNumeric(num(0), ValueType::kInt);
        case ScalarFunc::kLeast:
          if (all_int && e.result_type == ValueType::kInt) {
            return Value::Int(std::min(vals[0].AsInt(), vals[1].AsInt()));
          }
          return MakeNumeric(std::min(num(0), num(1)), e.result_type);
        case ScalarFunc::kGreatest:
          if (all_int && e.result_type == ValueType::kInt) {
            return Value::Int(std::max(vals[0].AsInt(), vals[1].AsInt()));
          }
          return MakeNumeric(std::max(num(0), num(1)), e.result_type);
        default:
          break;
      }
      return Status::Internal("unhandled scalar function");
    }
  }
  return Status::Internal("unhandled expression kind at runtime");
}

}  // namespace

Result<Value> ReferenceEvaluate(const Expr& expr, const EvalContext& ctx) {
  return EvalNode(expr, ctx);
}

Result<bool> ReferenceEvaluatePredicate(const Expr& expr, const EvalContext& ctx) {
  CEPR_ASSIGN_OR_RETURN(const Value v, EvalNode(expr, ctx));
  if (v.type() == ValueType::kBool) return v.AsBool();
  if (v.is_null()) return false;
  return Status::Internal("predicate evaluated to non-bool: " + expr.ToString());
}

double ReferenceEvaluateScore(const Expr& expr, const EvalContext& ctx) {
  auto v = EvalNode(expr, ctx);
  if (!v.ok() || v->is_null()) return -std::numeric_limits<double>::infinity();
  auto num = v->AsNumeric();
  if (!num.ok()) return -std::numeric_limits<double>::infinity();
  return num.value();
}

bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kFloat: {
      const double x = a.AsFloat();
      const double y = b.AsFloat();
      if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
      return std::memcmp(&x, &y, sizeof(double)) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

namespace {

// Compiles `expr`, failing the test if it does not compile.
Result<BytecodeProgram> CompileForTest(const Expr& expr) {
  auto prog = CompileToBytecode(expr);
  EXPECT_TRUE(prog.ok()) << expr.ToString() << ": " << prog.status().ToString();
  return prog;
}

// Fails the test unless `vm` and `ref` agree in status code and, when both
// succeed, in value.
template <typename T, typename Same>
void ExpectAgree(const Expr& expr, const Result<T>& vm, const Result<T>& ref,
                 Same same) {
  EXPECT_EQ(vm.ok(), ref.ok()) << expr.ToString() << "\n  vm:  "
                               << vm.status().ToString() << "\n  ref: "
                               << ref.status().ToString();
  if (vm.ok() && ref.ok()) {
    EXPECT_TRUE(same(*vm, *ref)) << "VM and reference disagree on "
                                 << expr.ToString();
  } else if (!vm.ok() && !ref.ok()) {
    EXPECT_EQ(vm.status().code(), ref.status().code()) << expr.ToString();
  }
}

}  // namespace

Result<Value> CheckedEvaluate(const Expr& expr, const EvalContext& ctx) {
  CEPR_ASSIGN_OR_RETURN(const BytecodeProgram prog, CompileForTest(expr));
  VmState vm;
  Result<Value> v = VmEvaluate(prog, ctx, &vm);
  ExpectAgree(expr, v, ReferenceEvaluate(expr, ctx), BitIdentical);
  return v;
}

Result<bool> CheckedEvaluatePredicate(const Expr& expr, const EvalContext& ctx) {
  CEPR_ASSIGN_OR_RETURN(const BytecodeProgram prog, CompileForTest(expr));
  VmState vm;
  Result<bool> v = VmEvaluatePredicate(prog, ctx, &vm);
  ExpectAgree(expr, v, ReferenceEvaluatePredicate(expr, ctx),
              [](bool a, bool b) { return a == b; });
  return v;
}

double CheckedEvaluateScore(const Expr& expr, const EvalContext& ctx) {
  auto prog = CompileForTest(expr);
  if (!prog.ok()) return -std::numeric_limits<double>::infinity();
  VmState vm;
  const double v = VmEvaluateScore(*prog, ctx, &vm);
  EXPECT_TRUE(BitIdentical(Value::Float(v),
                           Value::Float(ReferenceEvaluateScore(expr, ctx))))
      << "VM and reference disagree on " << expr.ToString();
  return v;
}

}  // namespace testing
}  // namespace cepr
