#include "expr/expr.h"

#include <algorithm>

#include "common/logging.h"

namespace cepr {

namespace {

// Sets `e`'s height from its children (see Expr::height).
ExprPtr WithHeight(ExprPtr e) {
  for (const auto& c : e->children) e->height = std::max(e->height, c->height + 1);
  return e;
}

}  // namespace

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kFirst:
      return "FIRST";
    case AggFunc::kLast:
      return "LAST";
  }
  return "?";
}

const char* ScalarFuncToString(ScalarFunc func) {
  switch (func) {
    case ScalarFunc::kAbs:
      return "ABS";
    case ScalarFunc::kSqrt:
      return "SQRT";
    case ScalarFunc::kLog:
      return "LOG";
    case ScalarFunc::kExp:
      return "EXP";
    case ScalarFunc::kPow:
      return "POW";
    case ScalarFunc::kFloor:
      return "FLOOR";
    case ScalarFunc::kCeil:
      return "CEIL";
    case ScalarFunc::kRound:
      return "ROUND";
    case ScalarFunc::kLeast:
      return "LEAST";
    case ScalarFunc::kGreatest:
      return "GREATEST";
    case ScalarFunc::kUpper:
      return "UPPER";
    case ScalarFunc::kLower:
      return "LOWER";
    case ScalarFunc::kLength:
      return "LENGTH";
    case ScalarFunc::kConcat:
      return "CONCAT";
    case ScalarFunc::kSubstr:
      return "SUBSTR";
  }
  return "?";
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::VarRef(std::string var, std::string attr) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kVarRef;
  e->var_name = std::move(var);
  e->attr_name = std::move(attr);
  return e;
}

ExprPtr Expr::IterRef(std::string var, std::string attr, IterKind iter) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIterRef;
  e->var_name = std::move(var);
  e->attr_name = std::move(attr);
  e->iter_kind = iter;
  return e;
}

ExprPtr Expr::Aggregate(AggFunc func, std::string var, std::string attr) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg_func = func;
  e->var_name = std::move(var);
  e->attr_name = std::move(attr);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return WithHeight(std::move(e));
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return WithHeight(std::move(e));
}

ExprPtr Expr::Func(ScalarFunc func, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunc;
  e->func = func;
  e->children = std::move(args);
  return WithHeight(std::move(e));
}

ExprPtr Expr::Case(std::vector<ExprPtr> children, bool has_else) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  e->children = std::move(children);
  e->has_else = has_else;
  return WithHeight(std::move(e));
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->var_name = var_name;
  e->attr_name = attr_name;
  e->var_index = var_index;
  e->attr_index = attr_index;
  e->iter_kind = iter_kind;
  e->agg_func = agg_func;
  e->agg_slot = agg_slot;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  e->func = func;
  e->has_else = has_else;
  e->result_type = result_type;
  e->height = height;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kVarRef:
      return var_name + "." + attr_name;
    case ExprKind::kIterRef: {
      const char* idx = iter_kind == IterKind::kCurrent ? "[i]"
                        : iter_kind == IterKind::kPrev  ? "[i-1]"
                                                        : "[1]";
      return var_name + idx + "." + attr_name;
    }
    case ExprKind::kAggregate: {
      std::string out = AggFuncToString(agg_func);
      out += "(";
      out += var_name;
      if (agg_func == AggFunc::kFirst || agg_func == AggFunc::kLast) {
        out += ").";
        out += attr_name;
        return out;
      }
      if (!attr_name.empty()) {
        out += ".";
        out += attr_name;
      }
      out += ")";
      return out;
    }
    case ExprKind::kUnary: {
      CEPR_DCHECK(children.size() == 1);
      if (unary_op == UnaryOp::kNot) return "NOT (" + children[0]->ToString() + ")";
      return "-(" + children[0]->ToString() + ")";
    }
    case ExprKind::kBinary: {
      CEPR_DCHECK(children.size() == 2);
      return "(" + children[0]->ToString() + " " + BinaryOpToString(binary_op) +
             " " + children[1]->ToString() + ")";
    }
    case ExprKind::kFunc: {
      std::string out = ScalarFuncToString(func);
      out += "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      const size_t pairs = (children.size() - (has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToString();
        out += " THEN " + children[2 * i + 1]->ToString();
      }
      if (has_else) out += " ELSE " + children.back()->ToString();
      out += " END";
      return out;
    }
  }
  return "?";
}

void Expr::CollectVarIndices(std::vector<int>* out) const {
  if (kind == ExprKind::kVarRef || kind == ExprKind::kIterRef ||
      kind == ExprKind::kAggregate) {
    out->push_back(var_index);
  }
  for (const auto& c : children) c->CollectVarIndices(out);
}

}  // namespace cepr
