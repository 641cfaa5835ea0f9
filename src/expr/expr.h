#ifndef CEPR_EXPR_EXPR_H_
#define CEPR_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "event/value.h"

namespace cepr {

/// Expression node kinds. One Expr class covers all kinds (tagged-union
/// style, as in SQLite's Expr); the `kind` selects which fields are
/// meaningful.
enum class ExprKind {
  kLiteral,    // 42, 3.5, 'IBM', TRUE, NULL
  kVarRef,     // a.price            (single-binding pattern variable)
  kIterRef,    // b[i].price / b[i-1].price / b[1].price (Kleene variable)
  kAggregate,  // MIN(b.price), COUNT(b), FIRST(b).price, ...
  kUnary,      // -x, NOT x
  kBinary,     // x + y, x < y, x AND y, ...
  kFunc,       // ABS(x), POW(x, y), UPPER(s), ...
  kCase,       // CASE WHEN c THEN v [WHEN ...] [ELSE v] END
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

/// Which event of a Kleene binding an IterRef addresses.
///   kCurrent  — b[i]   : the candidate event currently being tested
///   kPrev     — b[i-1] : the most recently accepted iteration
///   kFirst    — b[1]   : the first accepted iteration
enum class IterKind { kCurrent, kPrev, kFirst };

/// Aggregates over the accepted iterations of a Kleene variable.
/// kMin/kMax/kSum/kAvg require a numeric attribute and are maintained
/// incrementally in O(1) per accepted event; kCount takes a bare variable;
/// kFirst/kLast address the first/last accepted event's attribute.
enum class AggFunc { kMin, kMax, kSum, kAvg, kCount, kFirst, kLast };

/// Scalar builtin functions.
enum class ScalarFunc {
  // Numeric.
  kAbs,
  kSqrt,
  kLog,   // natural log
  kExp,
  kPow,   // two arguments
  kFloor,
  kCeil,
  kRound,
  kLeast,     // two arguments, numeric min
  kGreatest,  // two arguments, numeric max
  // Strings.
  kUpper,     // STRING -> STRING
  kLower,     // STRING -> STRING
  kLength,    // STRING -> INT
  kConcat,    // STRING... -> STRING (>= 1 argument)
  kSubstr,    // (STRING, start INT [1-based], len INT) -> STRING
};

const char* BinaryOpToString(BinaryOp op);
const char* AggFuncToString(AggFunc func);
const char* ScalarFuncToString(ScalarFunc func);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Pseudo attribute index meaning "the event timestamp" (var.ts), which is
/// not a schema attribute. Exposed as INT microseconds.
constexpr int kTimestampAttr = -2;

/// Tallest expression tree the parser accepts (Expr::height). Bounds the
/// recursion of every pass over a tree (analyzer, type checker, folder,
/// bytecode compiler, destructor) — the type checker, the deepest, stays
/// within a few MB of stack even in sanitizer builds — and the VM register
/// file: each level adds at most two registers, so a program needs at most
/// 2 * 512 + 1.
constexpr int kMaxExprHeight = 512;

/// One node of an expression tree. Parser produces unresolved nodes (names
/// only); the semantic analyzer fills var_index / attr_index / result_type;
/// the query compiler assigns agg_slot for incremental aggregates.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kVarRef / kIterRef / kAggregate: names as written...
  std::string var_name;
  std::string attr_name;  // empty for COUNT(b)
  // ...and resolution results (analyzer):
  int var_index = -1;
  int attr_index = -1;  // kTimestampAttr for .ts

  // kIterRef
  IterKind iter_kind = IterKind::kCurrent;

  // kAggregate
  AggFunc agg_func = AggFunc::kCount;
  int agg_slot = -1;  // compiler-assigned for kMin/kMax/kSum/kAvg

  // kUnary / kBinary / kFunc
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;
  ScalarFunc func = ScalarFunc::kAbs;

  // kCase
  bool has_else = false;

  std::vector<ExprPtr> children;

  /// Levels from this node down to its deepest leaf (1 for a leaf), set by
  /// the factories when the node is built. The parser rejects trees taller
  /// than kMaxExprHeight, so every recursive pass over a parsed tree has a
  /// bounded depth. Rewrites that shrink a subtree (constant folding) leave
  /// it an upper bound.
  int height = 1;

  /// Static type; ValueType::kNull until the type checker runs.
  ValueType result_type = ValueType::kNull;

  // -- Factories ---------------------------------------------------------

  static ExprPtr Literal(Value v);
  static ExprPtr VarRef(std::string var, std::string attr);
  static ExprPtr IterRef(std::string var, std::string attr, IterKind iter);
  static ExprPtr Aggregate(AggFunc func, std::string var, std::string attr);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Func(ScalarFunc func, std::vector<ExprPtr> args);
  /// CASE: children laid out as [cond0, val0, cond1, val1, ..., else?];
  /// has_else marks a trailing ELSE child.
  static ExprPtr Case(std::vector<ExprPtr> children, bool has_else);

  /// Deep copy (including resolution annotations).
  ExprPtr Clone() const;

  /// CEPR-QL surface syntax, fully parenthesized for binaries.
  std::string ToString() const;

  /// Appends (var_index of) every pattern variable referenced anywhere in
  /// this tree to `out` (may contain duplicates). Requires resolution.
  void CollectVarIndices(std::vector<int>* out) const;

  /// True iff the tree contains a node matching `pred`.
  template <typename Pred>
  bool Any(const Pred& pred) const {
    if (pred(*this)) return true;
    for (const auto& c : children) {
      if (c->Any(pred)) return true;
    }
    return false;
  }
};

}  // namespace cepr

#endif  // CEPR_EXPR_EXPR_H_
