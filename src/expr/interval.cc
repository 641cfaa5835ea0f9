#include "expr/interval.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace cepr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Multiplication with the convention 0 * inf = 0.
double MulSafe(double a, double b) {
  if (a == 0.0 || b == 0.0) return 0.0;
  return a * b;
}

}  // namespace

std::string Interval::ToString() const {
  return "[" + FormatDouble(lo) + ", " + FormatDouble(hi) + "]";
}

Interval operator+(Interval a, Interval b) { return {a.lo + b.lo, a.hi + b.hi}; }

Interval operator-(Interval a, Interval b) { return {a.lo - b.hi, a.hi - b.lo}; }

Interval operator-(Interval a) { return {-a.hi, -a.lo}; }

Interval operator*(Interval a, Interval b) {
  const double p1 = MulSafe(a.lo, b.lo);
  const double p2 = MulSafe(a.lo, b.hi);
  const double p3 = MulSafe(a.hi, b.lo);
  const double p4 = MulSafe(a.hi, b.hi);
  return {std::min(std::min(p1, p2), std::min(p3, p4)),
          std::max(std::max(p1, p2), std::max(p3, p4))};
}

Interval operator/(Interval a, Interval b) {
  if (b.Contains(0.0)) return Interval::Whole();
  const Interval inv{1.0 / b.hi, 1.0 / b.lo};
  return a * inv;
}

Interval Interval::Hull(Interval a, Interval b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval Interval::Min(Interval a, Interval b) {
  return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval Interval::Max(Interval a, Interval b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

namespace {

const Interval kBoolWhole{0.0, 1.0};
const Interval kTrue = Interval::Point(1.0);
const Interval kFalse = Interval::Point(0.0);

// The point interval of a VM result, or Whole() when the value is NULL /
// non-numeric (a NULL score maps to -inf at scoring time, but bounds stay
// conservative).
Interval PointOf(const VmReg& r) {
  switch (r.tag) {
    case ValueType::kBool:
      return r.b ? kTrue : kFalse;
    case ValueType::kInt:
      return Interval::Point(static_cast<double>(r.i));
    case ValueType::kFloat:
      return Interval::Point(r.f);
    default:
      return Interval::Whole();
  }
}

// Point value of a closed reference leaf: its one load instruction, run on
// a stack register.
Interval LeafPoint(const Expr& leaf, const BoundEnv& env) {
  const Insn insn = LeafInsn(leaf);
  VmReg reg;
  if (VmExec({&insn, 1}, {}, env.Context(), &reg) != nullptr) {
    return Interval::Whole();
  }
  return PointOf(reg);
}

// True iff every variable referenced in `e` is closed in `env`.
bool AllRefsClosed(const Expr& e, const BoundEnv& env) {
  return !e.Any([&env](const Expr& node) {
    if (node.kind == ExprKind::kVarRef || node.kind == ExprKind::kIterRef ||
        node.kind == ExprKind::kAggregate) {
      return !env.IsClosed(node.var_index);
    }
    return false;
  });
}

Interval Derive(const Expr& e, const BoundEnv& env);

Interval DeriveAggregate(const Expr& e, const BoundEnv& env) {
  const EvalContext& ctx = env.Context();
  const int64_t n = ctx.KleeneCount(e.var_index);
  const Interval range =
      e.attr_name.empty() ? Interval::Whole() : env.AttrRange(e.attr_index);
  // A "final" environment (the DAG enumerator) already summarizes every
  // completion, so its per-slot intervals replace the open-future widening
  // below.
  const bool final = env.KleeneFinal(e.var_index);

  switch (e.agg_func) {
    case AggFunc::kMin: {
      if (final && e.agg_slot >= 0) {
        if (auto slot = env.AggSlotRange(e.agg_slot)) return *slot;
      }
      // Future events can only lower the min (within the range's floor).
      const double cur = n > 0 ? ctx.AggValue(e.agg_slot) : range.hi;
      return {range.lo, cur};
    }
    case AggFunc::kMax: {
      if (final && e.agg_slot >= 0) {
        if (auto slot = env.AggSlotRange(e.agg_slot)) return *slot;
      }
      const double cur = n > 0 ? ctx.AggValue(e.agg_slot) : range.lo;
      return {cur, range.hi};
    }
    case AggFunc::kSum: {
      if (final && e.agg_slot >= 0) {
        if (auto slot = env.AggSlotRange(e.agg_slot)) return *slot;
      }
      const double cur = ctx.AggValue(e.agg_slot);
      // Unknown number of future events, each adding a value in `range`.
      double lo = cur;
      double hi = cur;
      if (range.lo < 0) lo = -kInf;
      if (range.hi > 0) hi = kInf;
      return {lo, hi};
    }
    case AggFunc::kAvg: {
      if (final && e.agg_slot >= 0) {
        const auto sum = env.AggSlotRange(e.agg_slot);
        const auto count = env.KleeneCountRange(e.var_index);
        // AVG folds as a SUM slot; divide by the possible counts. Counts
        // are >= 1 on any accepting path, so the divisor never spans zero.
        if (sum && count && count->lo >= 1.0) return *sum / *count;
      }
      // Every event (past and future) lies in `range`, so the mean does too.
      return range;
    }
    case AggFunc::kCount: {
      if (final) {
        if (auto count = env.KleeneCountRange(e.var_index)) return *count;
      }
      // Kleene-plus: at least max(n, 1) iterations in any completion.
      return {static_cast<double>(std::max<int64_t>(n, 1)), kInf};
    }
    case AggFunc::kFirst: {
      if (n > 0) return LeafPoint(e, env);  // first iteration is fixed forever
      return range;
    }
    case AggFunc::kLast:
      // The last event may still be replaced by a future in-range event.
      return range;
  }
  return Interval::Whole();
}

Interval DeriveCompare(const Expr& e, const BoundEnv& env) {
  const Interval a = Derive(*e.children[0], env);
  const Interval b = Derive(*e.children[1], env);
  bool definitely_true = false;
  bool definitely_false = false;
  switch (e.binary_op) {
    case BinaryOp::kLt:
      definitely_true = a.hi < b.lo;
      definitely_false = a.lo >= b.hi;
      break;
    case BinaryOp::kLe:
      definitely_true = a.hi <= b.lo;
      definitely_false = a.lo > b.hi;
      break;
    case BinaryOp::kGt:
      definitely_true = a.lo > b.hi;
      definitely_false = a.hi <= b.lo;
      break;
    case BinaryOp::kGe:
      definitely_true = a.lo >= b.hi;
      definitely_false = a.hi < b.lo;
      break;
    case BinaryOp::kEq:
      definitely_true = a.IsPoint() && b.IsPoint() && a.lo == b.lo;
      definitely_false = a.hi < b.lo || b.hi < a.lo;
      break;
    case BinaryOp::kNe:
      definitely_true = a.hi < b.lo || b.hi < a.lo;
      definitely_false = a.IsPoint() && b.IsPoint() && a.lo == b.lo;
      break;
    default:
      break;
  }
  if (definitely_true) return kTrue;
  if (definitely_false) return kFalse;
  return kBoolWhole;
}

Interval Derive(const Expr& e, const BoundEnv& env) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      switch (e.literal.type()) {
        case ValueType::kInt:
          return Interval::Point(static_cast<double>(e.literal.AsInt()));
        case ValueType::kFloat:
          return Interval::Point(e.literal.AsFloat());
        case ValueType::kBool:
          return e.literal.AsBool() ? kTrue : kFalse;
        default:
          return Interval::Whole();
      }
    }

    case ExprKind::kVarRef: {
      if (env.IsClosed(e.var_index) ||
          env.Context().SingleEvent(e.var_index) != nullptr) {
        return LeafPoint(e, env);
      }
      return env.AttrRange(e.attr_index);
    }

    case ExprKind::kIterRef:
      // Only appears in predicates, which the pruner does not bound; be
      // conservative if we ever get here.
      return env.IsClosed(e.var_index) ? LeafPoint(e, env)
                                       : env.AttrRange(e.attr_index);

    case ExprKind::kAggregate:
      if (env.IsClosed(e.var_index)) return LeafPoint(e, env);
      return DeriveAggregate(e, env);

    case ExprKind::kUnary: {
      if (e.unary_op == UnaryOp::kNeg) return -Derive(*e.children[0], env);
      const Interval c = Derive(*e.children[0], env);  // NOT on [0,1]
      return {std::max(0.0, 1.0 - c.hi), std::min(1.0, 1.0 - c.lo)};
    }

    case ExprKind::kBinary: {
      switch (e.binary_op) {
        case BinaryOp::kAdd:
          return Derive(*e.children[0], env) + Derive(*e.children[1], env);
        case BinaryOp::kSub:
          return Derive(*e.children[0], env) - Derive(*e.children[1], env);
        case BinaryOp::kMul:
          return Derive(*e.children[0], env) * Derive(*e.children[1], env);
        case BinaryOp::kDiv:
          return Derive(*e.children[0], env) / Derive(*e.children[1], env);
        case BinaryOp::kMod: {
          const Interval b = Derive(*e.children[1], env);
          const Interval a = Derive(*e.children[0], env);
          if (b.lo > 0 && std::isfinite(b.hi) && a.lo >= 0) return {0.0, b.hi - 1};
          return Interval::Whole();
        }
        case BinaryOp::kAnd: {
          const Interval a = Derive(*e.children[0], env);
          const Interval b = Derive(*e.children[1], env);
          return Interval::Min(a, b);  // on [0,1]: min is conjunction
        }
        case BinaryOp::kOr: {
          const Interval a = Derive(*e.children[0], env);
          const Interval b = Derive(*e.children[1], env);
          return Interval::Max(a, b);
        }
        default:
          return DeriveCompare(e, env);
      }
    }

    case ExprKind::kCase: {
      // Hull of every branch the match could take; a missing ELSE can yield
      // NULL, which scores as -inf — be conservative.
      if (!e.has_else) return Interval::Whole();
      const size_t pairs = (e.children.size() - 1) / 2;
      Interval hull = Derive(*e.children.back(), env);
      for (size_t i = 0; i < pairs; ++i) {
        hull = Interval::Hull(hull, Derive(*e.children[2 * i + 1], env));
      }
      return hull;
    }

    case ExprKind::kFunc: {
      switch (e.func) {
        case ScalarFunc::kLength:
          return {0.0, kInf};
        case ScalarFunc::kUpper:
        case ScalarFunc::kLower:
        case ScalarFunc::kConcat:
        case ScalarFunc::kSubstr:
          return Interval::Whole();  // string-valued: no numeric bound
        default:
          break;
      }
      const Interval a = Derive(*e.children[0], env);
      switch (e.func) {
        case ScalarFunc::kAbs: {
          if (a.lo >= 0) return a;
          if (a.hi <= 0) return -a;
          return {0.0, std::max(std::fabs(a.lo), a.hi)};
        }
        case ScalarFunc::kSqrt: {
          const double lo = a.lo > 0 ? std::sqrt(a.lo) : 0.0;
          const double hi = a.hi > 0 ? std::sqrt(a.hi) : 0.0;
          return {lo, hi};
        }
        case ScalarFunc::kLog: {
          const double lo = a.lo > 0 ? std::log(a.lo) : -kInf;
          const double hi = a.hi > 0 ? std::log(a.hi) : -kInf;
          return {lo, hi};
        }
        case ScalarFunc::kExp:
          return {std::exp(a.lo), std::exp(a.hi)};
        case ScalarFunc::kFloor:
          return {std::floor(a.lo), std::floor(a.hi)};
        case ScalarFunc::kCeil:
          return {std::ceil(a.lo), std::ceil(a.hi)};
        case ScalarFunc::kRound:
          return {std::floor(a.lo), std::ceil(a.hi)};
        case ScalarFunc::kLeast:
          return Interval::Min(a, Derive(*e.children[1], env));
        case ScalarFunc::kGreatest:
          return Interval::Max(a, Derive(*e.children[1], env));
        case ScalarFunc::kUpper:
        case ScalarFunc::kLower:
        case ScalarFunc::kLength:
        case ScalarFunc::kConcat:
        case ScalarFunc::kSubstr:
          return Interval::Whole();  // handled above; unreachable
        case ScalarFunc::kPow: {
          const Interval b = Derive(*e.children[1], env);
          // Only the easy monotone case: positive base.
          if (a.lo > 0 && std::isfinite(a.lo)) {
            const double c1 = std::pow(a.lo, b.lo);
            const double c2 = std::pow(a.lo, b.hi);
            const double c3 = std::pow(a.hi, b.lo);
            const double c4 = std::pow(a.hi, b.hi);
            return {std::min(std::min(c1, c2), std::min(c3, c4)),
                    std::max(std::max(c1, c2), std::max(c3, c4))};
          }
          return Interval::Whole();
        }
      }
      return Interval::Whole();
    }
  }
  return Interval::Whole();
}

}  // namespace

Interval DeriveBounds(const Expr& expr, const BytecodeProgram& prog,
                      const BoundEnv& env, VmState* vm) {
  // Fast path: a fully closed expression is just its value.
  if (AllRefsClosed(expr, env)) {
    VmReg* regs = vm->Acquire(prog.num_regs);
    if (VmExec(prog.code, prog.constants, env.Context(), regs) != nullptr) {
      return Interval::Whole();
    }
    return PointOf(regs[0]);
  }
  return Derive(expr, env);
}

}  // namespace cepr
