#include "expr/eval.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "expr/aggregate.h"
#include "expr/typecheck.h"
#include "lang/parser.h"
#include "testing/helpers.h"
#include "testing/reference_eval.h"

namespace cepr {
namespace {

using testing::AbcLayout;
using testing::CheckedEvaluate;
using testing::CheckedEvaluatePredicate;
using testing::CheckedEvaluateScore;
using testing::FakeContext;
using testing::Tick;

// Parses, type checks (output context unless the text is boolean), assigns
// aggregate slots, and evaluates against `ctx`.
Value Eval(const std::string& text, const FakeContext& ctx,
           ExprContext context = ExprContext::kOutput) {
  auto layout = AbcLayout();
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  auto st = TypeCheck(e->get(), layout, context);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<Expr*> exprs = {e->get()};
  AssignAggSlots(exprs);
  auto v = CheckedEvaluate(**e, ctx);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

TEST(EvalTest, Literals) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("42", ctx), Value::Int(42));
  EXPECT_EQ(Eval("2.5", ctx), Value::Float(2.5));
  EXPECT_EQ(Eval("'hi'", ctx), Value::String("hi"));
  EXPECT_EQ(Eval("TRUE", ctx), Value::Bool(true));
  EXPECT_EQ(Eval("NULL", ctx), Value::Null());
}

TEST(EvalTest, Arithmetic) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("2 + 3 * 4", ctx), Value::Int(14));
  EXPECT_EQ(Eval("(2 + 3) * 4", ctx), Value::Int(20));
  EXPECT_EQ(Eval("7 - 10", ctx), Value::Int(-3));
  EXPECT_EQ(Eval("7 / 2", ctx), Value::Float(3.5));
  EXPECT_EQ(Eval("7 % 3", ctx), Value::Int(1));
  EXPECT_EQ(Eval("-(3 + 4)", ctx), Value::Int(-7));
  EXPECT_EQ(Eval("2.5 + 1", ctx), Value::Float(3.5));
}

TEST(EvalTest, DivisionAndModByZeroYieldNull) {
  FakeContext ctx(3);
  EXPECT_TRUE(Eval("1 / 0", ctx).is_null());
  EXPECT_TRUE(Eval("1 % 0", ctx).is_null());
}

TEST(EvalTest, Comparisons) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("1 < 2", ctx, ExprContext::kPredicate), Value::Bool(true));
  EXPECT_EQ(Eval("2 <= 2", ctx, ExprContext::kPredicate), Value::Bool(true));
  EXPECT_EQ(Eval("1 > 2", ctx, ExprContext::kPredicate), Value::Bool(false));
  EXPECT_EQ(Eval("2 >= 3", ctx, ExprContext::kPredicate), Value::Bool(false));
  EXPECT_EQ(Eval("2 = 2.0", ctx, ExprContext::kPredicate), Value::Bool(true));
  EXPECT_EQ(Eval("2 != 2.0", ctx, ExprContext::kPredicate), Value::Bool(false));
  EXPECT_EQ(Eval("'abc' < 'abd'", ctx, ExprContext::kPredicate), Value::Bool(true));
  EXPECT_EQ(Eval("'b' >= 'b'", ctx, ExprContext::kPredicate), Value::Bool(true));
}

TEST(EvalTest, ThreeValuedLogic) {
  FakeContext ctx(3);
  // FALSE dominates AND; TRUE dominates OR, even against NULL.
  EXPECT_EQ(Eval("FALSE AND (NULL = 1)", ctx, ExprContext::kPredicate),
            Value::Bool(false));
  EXPECT_EQ(Eval("TRUE OR (NULL = 1)", ctx, ExprContext::kPredicate),
            Value::Bool(true));
  EXPECT_TRUE(Eval("TRUE AND (NULL = 1)", ctx, ExprContext::kPredicate).is_null());
  EXPECT_TRUE(Eval("FALSE OR (NULL = 1)", ctx, ExprContext::kPredicate).is_null());
  EXPECT_EQ(Eval("NOT (1 > 2)", ctx, ExprContext::kPredicate), Value::Bool(true));
}

TEST(EvalTest, NullPropagatesThroughArithmetic) {
  FakeContext ctx(3);  // a unbound -> a.price is NULL
  EXPECT_TRUE(Eval("a.price + 1", ctx).is_null());
  EXPECT_TRUE(Eval("-a.price", ctx).is_null());
  EXPECT_TRUE(Eval("ABS(a.price)", ctx).is_null());
}

TEST(EvalTest, NullEqualsNullIsTrue) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("NULL = NULL", ctx, ExprContext::kPredicate), Value::Bool(true));
  EXPECT_EQ(Eval("NULL != NULL", ctx, ExprContext::kPredicate), Value::Bool(false));
  EXPECT_TRUE(Eval("a.price = NULL", ctx, ExprContext::kPredicate).is_null() ||
              Eval("a.price = NULL", ctx, ExprContext::kPredicate) ==
                  Value::Bool(true));
}

TEST(EvalTest, VarRefReadsBoundEvent) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(1000, 42.5, 7, "IBM"));
  EXPECT_EQ(Eval("a.price", ctx), Value::Float(42.5));
  EXPECT_EQ(Eval("a.symbol", ctx), Value::String("IBM"));
  EXPECT_EQ(Eval("a.volume", ctx), Value::Int(7));
  EXPECT_EQ(Eval("a.ts", ctx), Value::Int(1000));
}

TEST(EvalTest, IterRefsAddressKleeneBinding) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 10)).Bind(1, Tick(2, 20)).Bind(1, Tick(3, 30));
  const Event cand = Tick(4, 40);
  ctx.Candidate(1, &cand);
  EXPECT_EQ(Eval("b[i].price = 40", ctx, ExprContext::kPredicate),
            Value::Bool(true));
  EXPECT_EQ(Eval("b[i-1].price = 30", ctx, ExprContext::kPredicate),
            Value::Bool(true));
  EXPECT_EQ(Eval("b[1].price = 10", ctx, ExprContext::kPredicate),
            Value::Bool(true));
  EXPECT_EQ(Eval("b[i].price > b[i-1].price AND b[i-1].price > b[1].price", ctx,
                 ExprContext::kPredicate),
            Value::Bool(true));
}

// Helper: wraps a predicate evaluation with proper resolution.
bool Predicate(const std::string& text, const FakeContext& ctx) {
  auto layout = AbcLayout();
  auto e = ParseExpression(text).value();
  EXPECT_TRUE(TypeCheck(e.get(), layout, ExprContext::kPredicate).ok());
  std::vector<Expr*> exprs = {e.get()};
  AssignAggSlots(exprs);
  auto r = CheckedEvaluatePredicate(*e, ctx);
  EXPECT_TRUE(r.ok());
  return r.ok() && r.value();
}

TEST(EvalTest, EvaluatePredicateNullIsFalse) {
  FakeContext ctx(3);  // everything unbound
  EXPECT_FALSE(Predicate("a.price > 10", ctx));
  ctx.Bind(0, Tick(1, 50));
  EXPECT_TRUE(Predicate("a.price > 10", ctx));
}

TEST(EvalTest, AggregatesFromContext) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 10, 5)).Bind(1, Tick(2, 20, 6));
  // MIN/MAX/SUM read their slot; FIRST/LAST/COUNT read bindings directly.
  EXPECT_EQ(Eval("COUNT(b)", ctx), Value::Int(2));
  EXPECT_EQ(Eval("FIRST(b).price", ctx), Value::Float(10));
  EXPECT_EQ(Eval("LAST(b).price", ctx), Value::Float(20));

  // Slot 0 will be assigned to the single aggregate in each expression.
  ctx.Slot(0, 10.0);
  EXPECT_EQ(Eval("MIN(b.price)", ctx), Value::Float(10));
  ctx.Slot(0, 30.0);
  EXPECT_EQ(Eval("SUM(b.volume)", ctx), Value::Int(30));
  EXPECT_EQ(Eval("AVG(b.volume)", ctx), Value::Float(15.0));
}

TEST(EvalTest, AggregatesOnEmptyKleeneAreNull) {
  FakeContext ctx(3);
  ctx.Slot(0, 0.0);
  EXPECT_TRUE(Eval("MIN(b.price)", ctx).is_null());
  EXPECT_TRUE(Eval("AVG(b.price)", ctx).is_null());
  EXPECT_EQ(Eval("COUNT(b)", ctx), Value::Int(0));
  EXPECT_TRUE(Eval("FIRST(b).price", ctx).is_null());
}

TEST(EvalTest, ScalarFunctions) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("ABS(-5)", ctx), Value::Int(5));
  EXPECT_EQ(Eval("ABS(-2.5)", ctx), Value::Float(2.5));
  EXPECT_EQ(Eval("SQRT(9)", ctx), Value::Float(3.0));
  EXPECT_TRUE(Eval("SQRT(-1)", ctx).is_null());
  EXPECT_TRUE(Eval("LOG(0)", ctx).is_null());
  EXPECT_EQ(Eval("EXP(0)", ctx), Value::Float(1.0));
  EXPECT_EQ(Eval("FLOOR(2.7)", ctx), Value::Int(2));
  EXPECT_EQ(Eval("CEIL(2.1)", ctx), Value::Int(3));
  EXPECT_EQ(Eval("ROUND(2.5)", ctx), Value::Int(3));
  EXPECT_EQ(Eval("LEAST(3, 7)", ctx), Value::Int(3));
  EXPECT_EQ(Eval("GREATEST(3.5, 7)", ctx), Value::Float(7.0));
  EXPECT_EQ(Eval("POW(2, 10)", ctx), Value::Float(1024.0));
}

// Builds `lhs op rhs` over int64 literals out of reach of the parser
// (INT64_MIN has no literal form) and evaluates it. Type checks the tree so
// result_type is set the same way parsed expressions get it.
Value EvalIntBinary(int64_t lhs, BinaryOp op, int64_t rhs) {
  auto layout = AbcLayout();
  auto e = Expr::Binary(op, Expr::Literal(Value::Int(lhs)),
                        Expr::Literal(Value::Int(rhs)));
  auto st = TypeCheck(e.get(), layout, ExprContext::kOutput);
  EXPECT_TRUE(st.ok()) << st.ToString();
  FakeContext ctx(3);
  auto v = CheckedEvaluate(*e, ctx);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value::Bool(false);
}

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

// Regression: INT64_MIN % -1 used to execute a hardware divide whose
// quotient overflows (SIGFPE on x86, UB everywhere). The contract is now
// result 0, consistent with the mathematical remainder.
TEST(EvalTest, ModByMinusOneIsZeroEvenAtInt64Min) {
  EXPECT_EQ(EvalIntBinary(kI64Min, BinaryOp::kMod, -1), Value::Int(0));
  EXPECT_EQ(EvalIntBinary(5, BinaryOp::kMod, -1), Value::Int(0));
  EXPECT_EQ(EvalIntBinary(-7, BinaryOp::kMod, 3), Value::Int(-1));
  // INT64_MIN / -1 overflows too; division is double-typed so it stays
  // finite instead of trapping.
  EXPECT_EQ(EvalIntBinary(kI64Min, BinaryOp::kDiv, -1),
            Value::Float(9223372036854775808.0));
}

// Regression: int + - * used to round-trip through double (lossy beyond
// 2^53) and overflow silently. They are now native int64 with overflow
// mapped to NULL.
TEST(EvalTest, IntegerArithmeticIsExactAndOverflowYieldsNull) {
  const int64_t big = (int64_t{1} << 53) + 1;  // not representable as double
  EXPECT_EQ(EvalIntBinary(big, BinaryOp::kAdd, 0), Value::Int(big));
  EXPECT_EQ(EvalIntBinary(big, BinaryOp::kSub, 1),
            Value::Int(int64_t{1} << 53));
  EXPECT_EQ(EvalIntBinary(kI64Max, BinaryOp::kSub, kI64Max), Value::Int(0));
  EXPECT_EQ(EvalIntBinary(3037000499, BinaryOp::kMul, 3037000499),
            Value::Int(9223372030926249001));  // largest square below 2^63

  EXPECT_TRUE(EvalIntBinary(kI64Max, BinaryOp::kAdd, 1).is_null());
  EXPECT_TRUE(EvalIntBinary(kI64Min, BinaryOp::kSub, 1).is_null());
  EXPECT_TRUE(EvalIntBinary(kI64Min, BinaryOp::kAdd, -1).is_null());
  EXPECT_TRUE(EvalIntBinary(3037000500, BinaryOp::kMul, 3037000500).is_null());
  EXPECT_TRUE(EvalIntBinary(kI64Min, BinaryOp::kMul, -1).is_null());
}

TEST(EvalTest, IntegerComparisonsAreExact) {
  // (double)INT64_MAX == (double)(INT64_MAX - 1), so the old double-based
  // comparison path called these equal.
  EXPECT_EQ(EvalIntBinary(kI64Max, BinaryOp::kGt, kI64Max - 1),
            Value::Bool(true));
  EXPECT_EQ(EvalIntBinary(kI64Max - 1, BinaryOp::kLt, kI64Max),
            Value::Bool(true));
  EXPECT_EQ(EvalIntBinary(kI64Min, BinaryOp::kLe, kI64Min), Value::Bool(true));
  // Equality intentionally keeps the double-compare semantics of
  // Value::operator== (shared with hashing); it is not part of this fix.
}

TEST(EvalTest, NegationAndAbsOfInt64MinYieldNull) {
  auto layout = AbcLayout();
  FakeContext ctx(3);

  auto neg = Expr::Unary(UnaryOp::kNeg, Expr::Literal(Value::Int(kI64Min)));
  ASSERT_TRUE(TypeCheck(neg.get(), layout, ExprContext::kOutput).ok());
  auto v = CheckedEvaluate(*neg, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());

  std::vector<ExprPtr> args;
  args.push_back(Expr::Literal(Value::Int(kI64Min)));
  auto abs = Expr::Func(ScalarFunc::kAbs, std::move(args));
  ASSERT_TRUE(TypeCheck(abs.get(), layout, ExprContext::kOutput).ok());
  v = CheckedEvaluate(*abs, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(EvalTest, FloatToIntCastsGuardTheRepresentableRange) {
  FakeContext ctx(3);
  auto layout = AbcLayout();
  const auto eval_func = [&](ScalarFunc f, double x) {
    std::vector<ExprPtr> args;
    args.push_back(Expr::Literal(Value::Float(x)));
    auto e = Expr::Func(f, std::move(args));
    EXPECT_TRUE(TypeCheck(e.get(), layout, ExprContext::kOutput).ok());
    auto v = CheckedEvaluate(*e, ctx);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? *v : Value::Bool(false);
  };

  EXPECT_TRUE(eval_func(ScalarFunc::kFloor, 1e300).is_null());
  EXPECT_TRUE(eval_func(ScalarFunc::kCeil, -1e300).is_null());
  EXPECT_TRUE(eval_func(ScalarFunc::kRound,
                        std::numeric_limits<double>::quiet_NaN())
                  .is_null());
  EXPECT_TRUE(eval_func(ScalarFunc::kRound,
                        std::numeric_limits<double>::infinity())
                  .is_null());
  // 2^63 is exactly the first unrepresentable value; one ULP below fits.
  EXPECT_TRUE(eval_func(ScalarFunc::kFloor, 9223372036854775808.0).is_null());
  EXPECT_EQ(eval_func(ScalarFunc::kFloor, 9223372036854774784.0),
            Value::Int(9223372036854774784));
  EXPECT_EQ(eval_func(ScalarFunc::kCeil, -9223372036854775808.0),
            Value::Int(kI64Min));

  // Int operands pass through the int-valued rounding functions unchanged.
  std::vector<ExprPtr> args;
  args.push_back(Expr::Literal(Value::Int(kI64Max)));
  auto e = Expr::Func(ScalarFunc::kRound, std::move(args));
  ASSERT_TRUE(TypeCheck(e.get(), layout, ExprContext::kOutput).ok());
  auto v = CheckedEvaluate(*e, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(kI64Max));
}

TEST(EvalTest, EvaluateScoreMapsNullToNegInfinity) {
  FakeContext ctx(3);
  auto layout = AbcLayout();
  auto e = ParseExpression("a.price * 2").value();
  ASSERT_TRUE(TypeCheck(e.get(), layout, ExprContext::kOutput).ok());
  // a unbound -> NULL -> -inf.
  EXPECT_EQ(CheckedEvaluateScore(*e, ctx), -std::numeric_limits<double>::infinity());
  ctx.Bind(0, Tick(1, 21));
  EXPECT_DOUBLE_EQ(CheckedEvaluateScore(*e, ctx), 42.0);
}

}  // namespace
}  // namespace cepr
