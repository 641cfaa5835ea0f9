#include "expr/fold.h"

#include <utility>

#include "expr/bytecode.h"
#include "expr/eval.h"
#include "expr/vm.h"

namespace cepr {

namespace {

// No bindings: only reachable by literal-only subtrees.
class NoBindingContext : public EvalContext {
 public:
  const Event* SingleEvent(int) const override { return nullptr; }
  const Event* KleeneFirst(int) const override { return nullptr; }
  const Event* KleeneLast(int) const override { return nullptr; }
  const Event* KleeneCurrent(int) const override { return nullptr; }
  int64_t KleeneCount(int) const override { return 0; }
  double AggValue(int) const override { return 0.0; }
};

bool IsLiteral(const Expr& e) { return e.kind == ExprKind::kLiteral; }

bool IsBoolLiteral(const Expr& e, bool value) {
  return IsLiteral(e) && e.literal.type() == ValueType::kBool &&
         e.literal.AsBool() == value;
}

// True iff the node's value depends only on literals (no refs anywhere).
bool AllChildrenLiteral(const Expr& e) {
  for (const auto& c : e.children) {
    if (!IsLiteral(*c)) return false;
  }
  return true;
}

ExprPtr MakeLiteral(Value v, ValueType static_type) {
  ExprPtr lit = Expr::Literal(std::move(v));
  // Keep the statically inferred type even when the value is NULL, so
  // downstream consumers (e.g. output typing) stay stable.
  lit->result_type =
      lit->literal.type() == ValueType::kNull ? static_type : lit->literal.type();
  return lit;
}

ExprPtr Fold(ExprPtr expr, VmState* vm) {
  // Leaves with references never fold.
  if (expr->kind == ExprKind::kVarRef || expr->kind == ExprKind::kIterRef ||
      expr->kind == ExprKind::kAggregate || expr->kind == ExprKind::kLiteral) {
    return expr;
  }

  for (auto& child : expr->children) {
    child = Fold(std::move(child), vm);
  }

  // Boolean identities (valid under three-valued logic: TRUE/FALSE branches
  // are definite regardless of the other operand).
  if (expr->kind == ExprKind::kBinary) {
    Expr& lhs = *expr->children[0];
    Expr& rhs = *expr->children[1];
    if (expr->binary_op == BinaryOp::kAnd) {
      if (IsBoolLiteral(lhs, false) || IsBoolLiteral(rhs, false)) {
        return MakeLiteral(Value::Bool(false), ValueType::kBool);
      }
      if (IsBoolLiteral(lhs, true)) return std::move(expr->children[1]);
      if (IsBoolLiteral(rhs, true)) return std::move(expr->children[0]);
    }
    if (expr->binary_op == BinaryOp::kOr) {
      if (IsBoolLiteral(lhs, true) || IsBoolLiteral(rhs, true)) {
        return MakeLiteral(Value::Bool(true), ValueType::kBool);
      }
      if (IsBoolLiteral(lhs, false)) return std::move(expr->children[1]);
      if (IsBoolLiteral(rhs, false)) return std::move(expr->children[0]);
    }
  }

  if (expr->kind == ExprKind::kCase) {
    // Drop FALSE arms; collapse on the first TRUE arm.
    std::vector<ExprPtr> kept;
    const size_t pairs = (expr->children.size() - (expr->has_else ? 1 : 0)) / 2;
    for (size_t i = 0; i < pairs; ++i) {
      Expr& cond = *expr->children[2 * i];
      if (IsBoolLiteral(cond, false)) continue;
      if (IsBoolLiteral(cond, true) && kept.empty()) {
        return std::move(expr->children[2 * i + 1]);
      }
      kept.push_back(std::move(expr->children[2 * i]));
      kept.push_back(std::move(expr->children[2 * i + 1]));
    }
    if (kept.empty()) {
      // Every arm folded away: the ELSE (or NULL) is the value.
      if (expr->has_else) return std::move(expr->children.back());
      return MakeLiteral(Value::Null(), expr->result_type);
    }
    if (expr->has_else) kept.push_back(std::move(expr->children.back()));
    const ValueType type = expr->result_type;
    const bool has_else = expr->has_else;
    expr = Expr::Case(std::move(kept), has_else);
    expr->result_type = type;
    return expr;
  }

  // Pure-literal operator/function nodes evaluate at compile time, on the
  // VM that evaluates them at run time.
  if ((expr->kind == ExprKind::kUnary || expr->kind == ExprKind::kBinary ||
       expr->kind == ExprKind::kFunc) &&
      AllChildrenLiteral(*expr)) {
    auto prog = CompileToBytecode(*expr);
    if (prog.ok()) {
      auto v = VmEvaluate(*prog, NoBindingContext(), vm);
      if (v.ok()) return MakeLiteral(std::move(v).value(), expr->result_type);
    }
  }
  return expr;
}

}  // namespace

ExprPtr FoldConstants(ExprPtr expr) {
  VmState vm;
  return Fold(std::move(expr), &vm);
}

}  // namespace cepr
