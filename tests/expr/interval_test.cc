#include "expr/interval.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "expr/aggregate.h"
#include "expr/bytecode.h"
#include "expr/typecheck.h"
#include "lang/parser.h"
#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::AbcLayout;
using testing::FakeContext;
using testing::Tick;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(IntervalTest, Arithmetic) {
  const Interval a = Interval::Of(1, 3);
  const Interval b = Interval::Of(-2, 5);
  EXPECT_EQ((a + b).lo, -1);
  EXPECT_EQ((a + b).hi, 8);
  EXPECT_EQ((a - b).lo, -4);
  EXPECT_EQ((a - b).hi, 5);
  EXPECT_EQ((-a).lo, -3);
  EXPECT_EQ((-a).hi, -1);
}

TEST(IntervalTest, MultiplicationSignCases) {
  EXPECT_EQ((Interval::Of(2, 3) * Interval::Of(4, 5)).lo, 8);
  EXPECT_EQ((Interval::Of(2, 3) * Interval::Of(4, 5)).hi, 15);
  EXPECT_EQ((Interval::Of(-2, 3) * Interval::Of(-4, 5)).lo, -12);
  EXPECT_EQ((Interval::Of(-2, 3) * Interval::Of(-4, 5)).hi, 15);
  EXPECT_EQ((Interval::Of(-3, -2) * Interval::Of(-5, -4)).lo, 8);
}

TEST(IntervalTest, ZeroTimesInfinityIsZero) {
  const Interval r = Interval::Point(0) * Interval::Whole();
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 0);
}

TEST(IntervalTest, DivisionAvoidingZero) {
  const Interval r = Interval::Of(10, 20) / Interval::Of(2, 4);
  EXPECT_EQ(r.lo, 2.5);
  EXPECT_EQ(r.hi, 10);
}

TEST(IntervalTest, DivisionThroughZeroIsWhole) {
  const Interval r = Interval::Of(10, 20) / Interval::Of(-1, 1);
  EXPECT_EQ(r.lo, -kInf);
  EXPECT_EQ(r.hi, kInf);
}

TEST(IntervalTest, HullMinMax) {
  const Interval a = Interval::Of(0, 2);
  const Interval b = Interval::Of(5, 7);
  EXPECT_EQ(Interval::Hull(a, b).lo, 0);
  EXPECT_EQ(Interval::Hull(a, b).hi, 7);
  EXPECT_EQ(Interval::Min(a, b).hi, 2);
  EXPECT_EQ(Interval::Max(a, b).lo, 5);
}

// Bound environment over SEQ(a, b+, c) / Stock with per-variable closedness.
class FakeBoundEnv : public BoundEnv {
 public:
  explicit FakeBoundEnv(const FakeContext* ctx) : ctx_(ctx) {}

  FakeBoundEnv& Close(int var) {
    closed_.push_back(var);
    return *this;
  }

  Interval AttrRange(int attr_index) const override {
    // Mirror the Stock schema ranges.
    if (attr_index == 1) return Interval::Of(1, 1000);   // price
    if (attr_index == 2) return Interval::Of(1, 10000);  // volume
    return Interval::Whole();
  }
  bool IsClosed(int var) const override {
    return std::find(closed_.begin(), closed_.end(), var) != closed_.end();
  }
  const EvalContext& Context() const override { return *ctx_; }

 private:
  const FakeContext* ctx_;
  std::vector<int> closed_;
};

ExprPtr Resolve(const std::string& text) {
  auto layout = AbcLayout();
  auto e = ParseExpression(text).value();
  auto st = TypeCheck(e.get(), layout, ExprContext::kOutput);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<Expr*> exprs = {e.get()};
  AssignAggSlots(exprs);
  return e;
}

// DeriveBounds with `expr`'s own program, as the pruner calls it.
Interval Bounds(const Expr& expr, const BoundEnv& env) {
  const BytecodeProgram prog = CompileToBytecode(expr).value();
  VmState vm;
  return DeriveBounds(expr, prog, env, &vm);
}

TEST(DeriveBoundsTest, LiteralIsPoint) {
  FakeContext ctx(3);
  FakeBoundEnv env(&ctx);
  const Interval r = Bounds(*Resolve("42"), env);
  EXPECT_EQ(r.lo, 42);
  EXPECT_EQ(r.hi, 42);
}

TEST(DeriveBoundsTest, OpenVarRefUsesAttrRange) {
  FakeContext ctx(3);
  FakeBoundEnv env(&ctx);
  const Interval r = Bounds(*Resolve("c.price"), env);
  EXPECT_EQ(r.lo, 1);
  EXPECT_EQ(r.hi, 1000);
}

TEST(DeriveBoundsTest, BoundVarRefIsPoint) {
  FakeContext ctx(3);
  ctx.Bind(0, Tick(1, 42.0));
  FakeBoundEnv env(&ctx);
  env.Close(0);
  const Interval r = Bounds(*Resolve("a.price"), env);
  EXPECT_EQ(r.lo, 42);
  EXPECT_EQ(r.hi, 42);
}

TEST(DeriveBoundsTest, OpenMinOnlyDecreases) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 50.0)).Slot(0, 50.0);  // running min = 50
  FakeBoundEnv env(&ctx);
  const Interval r = Bounds(*Resolve("MIN(b.price)"), env);
  EXPECT_EQ(r.lo, 1);    // could fall to the range floor
  EXPECT_EQ(r.hi, 50);   // can never exceed the running min
}

TEST(DeriveBoundsTest, OpenMaxOnlyIncreases) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 50.0)).Slot(0, 50.0);  // running max = 50
  FakeBoundEnv env(&ctx);
  const Interval r = Bounds(*Resolve("MAX(b.price)"), env);
  EXPECT_EQ(r.lo, 50);
  EXPECT_EQ(r.hi, 1000);
}

TEST(DeriveBoundsTest, OpenSumOfPositiveAttributeUnboundedAbove) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 50.0)).Slot(0, 50.0);
  FakeBoundEnv env(&ctx);
  const Interval r = Bounds(*Resolve("SUM(b.price)"), env);
  EXPECT_EQ(r.lo, 50);  // price >= 1: sum can only grow
  EXPECT_EQ(r.hi, kInf);
}

TEST(DeriveBoundsTest, AvgStaysWithinRange) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 50.0)).Slot(0, 50.0);
  FakeBoundEnv env(&ctx);
  const Interval r = Bounds(*Resolve("AVG(b.price)"), env);
  EXPECT_GE(r.lo, 1);
  EXPECT_LE(r.hi, 1000);
}

TEST(DeriveBoundsTest, CountAtLeastCurrentOrOne) {
  FakeContext ctx(3);
  FakeBoundEnv env(&ctx);
  Interval r = Bounds(*Resolve("COUNT(b)"), env);
  EXPECT_EQ(r.lo, 1);  // Kleene-plus: at least one iteration in a match
  EXPECT_EQ(r.hi, kInf);

  ctx.Bind(1, Tick(1, 1)).Bind(1, Tick(2, 2)).Bind(1, Tick(3, 3));
  r = Bounds(*Resolve("COUNT(b)"), env);
  EXPECT_EQ(r.lo, 3);
}

TEST(DeriveBoundsTest, FirstFixedOnceBound) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 70.0));
  FakeBoundEnv env(&ctx);
  const Interval r = Bounds(*Resolve("FIRST(b).price"), env);
  EXPECT_EQ(r.lo, 70);
  EXPECT_EQ(r.hi, 70);
  // LAST can still be replaced by any in-range event.
  const Interval last = Bounds(*Resolve("LAST(b).price"), env);
  EXPECT_EQ(last.lo, 1);
  EXPECT_EQ(last.hi, 1000);
}

TEST(DeriveBoundsTest, ClosedKleeneIsPoint) {
  FakeContext ctx(3);
  ctx.Bind(1, Tick(1, 30.0)).Bind(1, Tick(2, 20.0)).Slot(0, 20.0);
  FakeBoundEnv env(&ctx);
  env.Close(1);
  const Interval r = Bounds(*Resolve("MIN(b.price)"), env);
  EXPECT_EQ(r.lo, 20);
  EXPECT_EQ(r.hi, 20);
}

TEST(DeriveBoundsTest, VShapeScoreBound) {
  // The quickstart score: (a.price - MIN(b.price)) / a.price with a bound
  // and b partially accumulated.
  FakeContext ctx(3);
  ctx.Bind(0, Tick(1, 100.0));
  ctx.Bind(1, Tick(2, 90.0)).Slot(0, 90.0);
  FakeBoundEnv env(&ctx);
  env.Close(0);
  const Interval r =
      Bounds(*Resolve("(a.price - MIN(b.price)) / a.price"), env);
  // Best case: min falls to 1 -> (100-1)/100; worst: stays 90 -> 0.1.
  EXPECT_NEAR(r.lo, 0.1, 1e-9);
  EXPECT_NEAR(r.hi, 0.99, 1e-9);
}

TEST(DeriveBoundsTest, DefiniteComparisonsCollapse) {
  FakeContext ctx(3);
  FakeBoundEnv env(&ctx);
  // price in [1,1000]: price > 0 definitely true, price < 0 definitely false.
  Interval r = Bounds(*Resolve("c.price > 0"), env);
  EXPECT_EQ(r.lo, 1);
  EXPECT_EQ(r.hi, 1);
  r = Bounds(*Resolve("c.price < 0"), env);
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 0);
  r = Bounds(*Resolve("c.price > 500"), env);
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 1);
}

TEST(DeriveBoundsTest, FunctionsMonotone) {
  FakeContext ctx(3);
  FakeBoundEnv env(&ctx);
  Interval r = Bounds(*Resolve("SQRT(c.price)"), env);
  EXPECT_NEAR(r.lo, 1.0, 1e-9);
  EXPECT_NEAR(r.hi, std::sqrt(1000.0), 1e-9);
  // c.price - 500 spans [-499, 500], so the absolute value peaks at 500.
  r = Bounds(*Resolve("ABS(c.price - 500)"), env);
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 500);
}

// Soundness property: for random partial states and random completions, the
// final score always lies inside the derived interval.
TEST(DeriveBoundsTest, SoundnessOnRandomCompletions) {
  Random rng(2024);
  const ExprPtr score = Resolve("(a.price - MIN(b.price)) / a.price + COUNT(b)");
  for (int trial = 0; trial < 200; ++trial) {
    FakeContext partial(3);
    const double a_price = rng.UniformDouble(1, 1000);
    partial.Bind(0, Tick(0, a_price));
    double running_min = kInf;
    const int existing = static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < existing; ++i) {
      const double p = rng.UniformDouble(1, 1000);
      running_min = std::min(running_min, p);
      partial.Bind(1, Tick(i + 1, p));
    }
    if (existing > 0) partial.Slot(0, running_min);
    FakeBoundEnv env(&partial);
    env.Close(0);
    const Interval bound = Bounds(*score, env);

    // Complete with 1..3 more b events and evaluate the true score.
    FakeContext complete(3);
    complete.Bind(0, Tick(0, a_price));
    double final_min = running_min;
    int total = existing;
    for (int i = 0; i < existing; ++i) complete.Bind(1, Tick(i + 1, 500));
    const int extra = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < extra; ++i) {
      const double p = rng.UniformDouble(1, 1000);
      final_min = std::min(final_min, p);
      complete.Bind(1, Tick(100 + i, p));
      ++total;
    }
    complete.Slot(0, final_min);
    const double actual =
        (a_price - final_min) / a_price + static_cast<double>(total);
    EXPECT_GE(actual, bound.lo - 1e-9) << "trial " << trial;
    EXPECT_LE(actual, bound.hi + 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cepr
