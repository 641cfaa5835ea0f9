// Tests for CASE WHEN, BETWEEN, IN, and the string functions.

#include <gtest/gtest.h>

#include "expr/aggregate.h"
#include "expr/eval.h"
#include "expr/typecheck.h"
#include "lang/parser.h"
#include "plan/compiler.h"
#include "testing/helpers.h"
#include "testing/reference_eval.h"

namespace cepr {
namespace {

using testing::AbcLayout;
using testing::CheckedEvaluate;
using testing::FakeContext;
using testing::Tick;

Value Eval(const std::string& text, const FakeContext& ctx,
           ExprContext context = ExprContext::kOutput) {
  auto layout = AbcLayout();
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  if (!e.ok()) return Value::Null();
  auto st = TypeCheck(e->get(), layout, context);
  EXPECT_TRUE(st.ok()) << text << ": " << st.ToString();
  if (!st.ok()) return Value::Null();
  std::vector<Expr*> exprs = {e->get()};
  AssignAggSlots(exprs);
  auto v = CheckedEvaluate(**e, ctx);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

// -- BETWEEN / IN (desugared at parse time) ----------------------------------

TEST(BetweenTest, DesugarsToRangeCheck) {
  auto e = ParseExpression("a.price BETWEEN 10 AND 20").value();
  EXPECT_EQ(e->ToString(), "((a.price >= 10) AND (a.price <= 20))");
}

TEST(BetweenTest, Evaluates) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 15));
  EXPECT_EQ(Eval("a.price BETWEEN 10 AND 20", ctx, ExprContext::kPredicate),
            Value::Bool(true));
  EXPECT_EQ(Eval("a.price BETWEEN 16 AND 20", ctx, ExprContext::kPredicate),
            Value::Bool(false));
  EXPECT_EQ(Eval("a.price BETWEEN 15 AND 15", ctx, ExprContext::kPredicate),
            Value::Bool(true));  // inclusive bounds
}

TEST(InTest, DesugarsToDisjunction) {
  auto e = ParseExpression("a.volume IN (1, 2, 3)").value();
  EXPECT_EQ(e->ToString(),
            "(((a.volume = 1) OR (a.volume = 2)) OR (a.volume = 3))");
}

TEST(InTest, EvaluatesOverStrings) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 1, 1, "IBM"));
  EXPECT_EQ(Eval("a.symbol IN ('AAPL', 'IBM')", ctx, ExprContext::kPredicate),
            Value::Bool(true));
  EXPECT_EQ(Eval("a.symbol IN ('AAPL', 'MSFT')", ctx, ExprContext::kPredicate),
            Value::Bool(false));
}

TEST(InTest, SingleElementList) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 5));
  EXPECT_EQ(Eval("a.price IN (5)", ctx, ExprContext::kPredicate),
            Value::Bool(true));
}

// -- CASE ----------------------------------------------------------------------

TEST(CaseTest, ParsesAndUnparses) {
  auto e = ParseExpression(
               "CASE WHEN a.price > 10 THEN 'high' WHEN a.price > 5 THEN 'mid' "
               "ELSE 'low' END")
               .value();
  EXPECT_EQ(e->ToString(),
            "CASE WHEN (a.price > 10) THEN 'high' WHEN (a.price > 5) THEN "
            "'mid' ELSE 'low' END");
}

TEST(CaseTest, FirstTrueBranchWins) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 7));
  EXPECT_EQ(Eval("CASE WHEN a.price > 10 THEN 'high' "
                 "WHEN a.price > 5 THEN 'mid' ELSE 'low' END",
                 ctx),
            Value::String("mid"));
}

TEST(CaseTest, MissingElseYieldsNull) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 1));
  EXPECT_TRUE(Eval("CASE WHEN a.price > 10 THEN 1 END", ctx).is_null());
}

TEST(CaseTest, NumericBranchesPromote) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 100));
  // INT and FLOAT branches: static type FLOAT, INT branch promoted.
  const Value v = Eval("CASE WHEN a.price > 10 THEN 1 ELSE 0.5 END", ctx);
  EXPECT_EQ(v.type(), ValueType::kFloat);
  EXPECT_DOUBLE_EQ(v.AsFloat(), 1.0);
}

TEST(CaseTest, NullConditionTreatedAsFalse) {
  FakeContext ctx(3);  // a unbound: a.price > 10 is NULL
  EXPECT_EQ(Eval("CASE WHEN a.price > 10 THEN 1 ELSE 2 END", ctx), Value::Int(2));
}

TEST(CaseTest, TypeErrors) {
  auto layout = AbcLayout();
  for (const std::string text : {
           "CASE WHEN 1 THEN 2 ELSE 3 END",          // non-bool condition
           "CASE WHEN TRUE THEN 1 ELSE 'x' END",     // incompatible branches
       }) {
    auto e = ParseExpression(text).value();
    EXPECT_FALSE(TypeCheck(e.get(), layout, ExprContext::kOutput).ok()) << text;
  }
  EXPECT_FALSE(ParseExpression("CASE ELSE 1 END").ok());  // WHEN required
  EXPECT_FALSE(ParseExpression("CASE WHEN TRUE THEN 1").ok());  // END required
}

TEST(CaseTest, UsableAsRankScore) {
  // CASE-based scoring: a common "severity bucketing" idiom.
  auto plan = CompileQueryText(
      "SELECT a.price FROM Stock MATCH PATTERN SEQ(a) "
      "RANK BY CASE WHEN a.price > 500 THEN 3 WHEN a.price > 100 THEN 2 "
      "ELSE 1 END DESC LIMIT 2",
      testing::StockSchema());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Bounded branches -> statically prunable.
  EXPECT_TRUE((*plan)->score_prunable);
}

// -- String functions ------------------------------------------------------------

TEST(StringFuncTest, UpperLower) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("UPPER('IbM')", ctx), Value::String("IBM"));
  EXPECT_EQ(Eval("LOWER('IbM')", ctx), Value::String("ibm"));
}

TEST(StringFuncTest, Length) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("LENGTH('')", ctx), Value::Int(0));
  EXPECT_EQ(Eval("LENGTH('hello')", ctx), Value::Int(5));
}

TEST(StringFuncTest, Concat) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 1, 1, "IBM"));
  EXPECT_EQ(Eval("CONCAT('sym=', a.symbol)", ctx), Value::String("sym=IBM"));
  EXPECT_EQ(Eval("CONCAT('a', 'b', 'c')", ctx), Value::String("abc"));
}

TEST(StringFuncTest, SubstrOneBasedAndClamped) {
  FakeContext ctx(3);
  EXPECT_EQ(Eval("SUBSTR('hello', 2, 3)", ctx), Value::String("ell"));
  EXPECT_EQ(Eval("SUBSTR('hello', 1, 99)", ctx), Value::String("hello"));
  EXPECT_EQ(Eval("SUBSTR('hello', 9, 2)", ctx), Value::String(""));
  EXPECT_EQ(Eval("SUBSTRING('hello', 5, 1)", ctx), Value::String("o"));
}

TEST(StringFuncTest, NullPropagates) {
  FakeContext ctx(3);  // a unbound
  EXPECT_TRUE(Eval("UPPER(a.symbol)", ctx).is_null());
  EXPECT_TRUE(Eval("CONCAT('x', a.symbol)", ctx).is_null());
  EXPECT_TRUE(Eval("LENGTH(a.symbol)", ctx).is_null());
}

TEST(StringFuncTest, TypeErrors) {
  auto layout = AbcLayout();
  for (const std::string text : {
           "UPPER(5)",
           "LENGTH(a.price)",
           "CONCAT()",
           "SUBSTR('x', 'y', 1)",
           "SUBSTR('x', 1)",
       }) {
    auto e = ParseExpression(text);
    if (!e.ok()) continue;  // parse-level rejection also acceptable
    EXPECT_FALSE(TypeCheck(e->get(), layout, ExprContext::kOutput).ok()) << text;
  }
}

TEST(StringFuncTest, ComposableWithComparisons) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(0, 1, 1, "ibm"));
  EXPECT_EQ(Eval("UPPER(a.symbol) = 'IBM'", ctx, ExprContext::kPredicate),
            Value::Bool(true));
  EXPECT_EQ(Eval("LENGTH(CONCAT(a.symbol, 'x')) = 4", ctx,
                 ExprContext::kPredicate),
            Value::Bool(true));
}

// -- Soft keywords remain usable as identifiers --------------------------------

TEST(SoftKeywordTest, CaseWordsUsableAsAttributeNames) {
  // "when", "then", "end" are soft keywords: still valid attribute names.
  auto schema = Schema::Make("Soft", {Attribute{"when", ValueType::kInt, {}},
                                      Attribute{"given", ValueType::kInt, {}}})
                    .value();
  auto plan = CompileQueryText(
      "SELECT a.when FROM Soft MATCH PATTERN SEQ(a) WHERE a.when > 0", schema);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
}

}  // namespace
}  // namespace cepr
