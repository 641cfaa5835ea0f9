// Differential fuzz test: the bytecode VM, the engine's only evaluator, must
// be bit-identical to the reference tree walker (testing/reference_eval.h)
// — same value for every OK evaluation, NULL where the other is NULL, and
// an error status with the same code where the other errors. The walker
// states the language's semantics independently of the compiler and VM
// (docs/ARCHITECTURE.md, "Predicate bytecode").
//
// We generate random type-correct expression trees over the SEQ(a, b+, c)
// Stock layout, seed the leaves with adversarial constants (NULL, NaN,
// +/-inf, +/-0.0, INT64_MIN/MAX, 2^53 neighbours, empty strings), run both
// evaluators against several binding contexts (unbound, partial, full,
// extreme attribute values) and compare value-for-value / status-for-status.
// Hand-built malformed trees cover the error paths the type checker would
// normally reject.

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "expr/aggregate.h"
#include "expr/bytecode.h"
#include "expr/eval.h"
#include "expr/typecheck.h"
#include "expr/vm.h"
#include "testing/helpers.h"
#include "testing/reference_eval.h"

namespace cepr {
namespace {

using testing::AbcLayout;
using testing::BitIdentical;
using testing::FakeContext;
using testing::ReferenceEvaluate;
using testing::ReferenceEvaluatePredicate;
using testing::ReferenceEvaluateScore;
using testing::StockSchema;
using testing::Tick;

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Loose generation types: INT and FLOAT mix freely in numeric positions.
enum class GenType { kNum, kBool, kStr };

/// Generates random, mostly type-correct expression trees. "Mostly": a rare
/// NULL literal can land anywhere, and numeric productions mix INT/FLOAT, so
/// a small fraction of trees fail TypeCheck and are skipped (counted, with a
/// floor asserted so the generator cannot silently degenerate).
class TreeGen {
 public:
  TreeGen(std::mt19937_64* rng, bool allow_iter)
      : rng_(rng), allow_iter_(allow_iter) {}

  ExprPtr Gen(GenType t, int depth) {
    if (depth <= 0 || Pick(5) == 0) return Leaf(t);
    switch (t) {
      case GenType::kNum:
        return Num(depth);
      case GenType::kBool:
        return Bool(depth);
      case GenType::kStr:
        return Str(depth);
    }
    return Leaf(t);
  }

 private:
  int Pick(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng_);
  }

  ExprPtr Leaf(GenType t) {
    if (Pick(10) == 0) return Expr::Literal(Value::Null());
    switch (t) {
      case GenType::kNum:
        return Pick(2) == 0 ? IntLeaf() : FloatLeaf();
      case GenType::kBool:
        return Expr::Literal(Value::Bool(Pick(2) == 0));
      case GenType::kStr:
        return StrLeaf();
    }
    return Expr::Literal(Value::Null());
  }

  ExprPtr IntLeaf() {
    static const int64_t kPool[] = {0,       1,  -1, 2, 42, kI64Min, kI64Max,
                                    kI64Max - 1, (int64_t{1} << 53) + 1,
                                    -(int64_t{1} << 53) - 1, 10000};
    switch (Pick(6)) {
      case 0:
        return Expr::Literal(Value::Int(kPool[Pick(11)]));
      case 1:
        return Expr::VarRef(Pick(2) == 0 ? "a" : "c", "volume");
      case 2:
        return Expr::VarRef(Pick(2) == 0 ? "a" : "c", "ts");
      case 3:
        return Expr::Aggregate(AggFunc::kCount, "b", "");
      case 4:
        return Expr::Aggregate(Pick(2) == 0 ? AggFunc::kSum : AggFunc::kFirst,
                               "b", "volume");
      default:
        if (allow_iter_) {
          return Expr::IterRef("b", "volume", RandomIter());
        }
        return Expr::Aggregate(AggFunc::kLast, "b", "volume");
    }
  }

  ExprPtr FloatLeaf() {
    static const double kPool[] = {0.0,  -0.0, 1.5,  -2.25, 0.1,   kNan,
                                   kInf, -kInf, 1e300, -1e300, 999.5};
    switch (Pick(5)) {
      case 0:
      case 1:
        return Expr::Literal(Value::Float(kPool[Pick(11)]));
      case 2:
        return Expr::VarRef(Pick(2) == 0 ? "a" : "c", "price");
      case 3: {
        static const AggFunc kAggs[] = {AggFunc::kMin, AggFunc::kMax,
                                        AggFunc::kAvg, AggFunc::kSum};
        return Expr::Aggregate(kAggs[Pick(4)], "b", "price");
      }
      default:
        if (allow_iter_) return Expr::IterRef("b", "price", RandomIter());
        return Expr::Aggregate(AggFunc::kFirst, "b", "price");
    }
  }

  ExprPtr StrLeaf() {
    static const char* kPool[] = {"", "a", "IBM", "hello world", "S0"};
    switch (Pick(3)) {
      case 0:
        return Expr::Literal(Value::String(kPool[Pick(5)]));
      case 1:
        return Expr::VarRef(Pick(2) == 0 ? "a" : "c", "symbol");
      default:
        if (allow_iter_) return Expr::IterRef("b", "symbol", RandomIter());
        return Expr::Aggregate(AggFunc::kLast, "b", "symbol");
    }
  }

  IterKind RandomIter() {
    static const IterKind kKinds[] = {IterKind::kCurrent, IterKind::kPrev,
                                      IterKind::kFirst};
    return kKinds[Pick(3)];
  }

  ExprPtr Num(int depth) {
    switch (Pick(8)) {
      case 0: {
        static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                        BinaryOp::kMul, BinaryOp::kDiv};
        return Expr::Binary(kOps[Pick(4)], Gen(GenType::kNum, depth - 1),
                            Gen(GenType::kNum, depth - 1));
      }
      case 1:
        // % is INT-only; int-yielding subtrees keep the accept rate up.
        return Expr::Binary(BinaryOp::kMod, IntLeaf(), IntLeaf());
      case 2:
        return Expr::Unary(UnaryOp::kNeg, Gen(GenType::kNum, depth - 1));
      case 3: {
        static const ScalarFunc kOne[] = {ScalarFunc::kAbs, ScalarFunc::kSqrt,
                                          ScalarFunc::kLog, ScalarFunc::kExp,
                                          ScalarFunc::kFloor, ScalarFunc::kCeil,
                                          ScalarFunc::kRound};
        std::vector<ExprPtr> args;
        args.push_back(Gen(GenType::kNum, depth - 1));
        return Expr::Func(kOne[Pick(7)], std::move(args));
      }
      case 4: {
        static const ScalarFunc kTwo[] = {ScalarFunc::kPow, ScalarFunc::kLeast,
                                          ScalarFunc::kGreatest};
        std::vector<ExprPtr> args;
        args.push_back(Gen(GenType::kNum, depth - 1));
        args.push_back(Gen(GenType::kNum, depth - 1));
        return Expr::Func(kTwo[Pick(3)], std::move(args));
      }
      case 5: {
        std::vector<ExprPtr> args;
        args.push_back(Gen(GenType::kStr, depth - 1));
        return Expr::Func(ScalarFunc::kLength, std::move(args));
      }
      case 6:
        return Case(GenType::kNum, depth);
      default:
        return Leaf(GenType::kNum);
    }
  }

  ExprPtr Bool(int depth) {
    switch (Pick(6)) {
      case 0:
      case 1: {
        static const BinaryOp kCmp[] = {BinaryOp::kLt, BinaryOp::kLe,
                                        BinaryOp::kGt, BinaryOp::kGe,
                                        BinaryOp::kEq, BinaryOp::kNe};
        const GenType operand = Pick(4) == 0 ? GenType::kStr : GenType::kNum;
        return Expr::Binary(kCmp[Pick(6)], Gen(operand, depth - 1),
                            Gen(operand, depth - 1));
      }
      case 2:
        return Expr::Binary(Pick(2) == 0 ? BinaryOp::kAnd : BinaryOp::kOr,
                            Gen(GenType::kBool, depth - 1),
                            Gen(GenType::kBool, depth - 1));
      case 3:
        return Expr::Unary(UnaryOp::kNot, Gen(GenType::kBool, depth - 1));
      case 4:
        return Case(GenType::kBool, depth);
      default:
        return Leaf(GenType::kBool);
    }
  }

  ExprPtr Str(int depth) {
    switch (Pick(5)) {
      case 0: {
        std::vector<ExprPtr> args;
        args.push_back(Gen(GenType::kStr, depth - 1));
        return Expr::Func(Pick(2) == 0 ? ScalarFunc::kUpper : ScalarFunc::kLower,
                          std::move(args));
      }
      case 1: {
        std::vector<ExprPtr> args;
        const int n = 1 + Pick(3);
        for (int i = 0; i < n; ++i) {
          args.push_back(Gen(GenType::kStr, depth - 1));
        }
        return Expr::Func(ScalarFunc::kConcat, std::move(args));
      }
      case 2: {
        std::vector<ExprPtr> args;
        args.push_back(Gen(GenType::kStr, depth - 1));
        args.push_back(Gen(GenType::kNum, depth - 1));
        args.push_back(Gen(GenType::kNum, depth - 1));
        return Expr::Func(ScalarFunc::kSubstr, std::move(args));
      }
      case 3:
        return Case(GenType::kStr, depth);
      default:
        return Leaf(GenType::kStr);
    }
  }

  ExprPtr Case(GenType t, int depth) {
    std::vector<ExprPtr> children;
    const int pairs = 1 + Pick(2);
    for (int i = 0; i < pairs; ++i) {
      children.push_back(Gen(GenType::kBool, depth - 1));
      children.push_back(Gen(t, depth - 1));
    }
    const bool has_else = Pick(2) == 0;
    if (has_else) children.push_back(Gen(t, depth - 1));
    return Expr::Case(std::move(children), has_else);
  }

  std::mt19937_64* rng_;
  bool allow_iter_;
};

struct Contexts {
  Contexts() {
    for (auto* c : {&empty, &partial, &full, &extreme}) {
      // AggValue slots: preset adversarial doubles for however many slots the
      // tree's aggregates get assigned.
      static const double kSlots[] = {0.0, 1.5, -kInf, kInf, kNan,
                                      1e300, -2.5, 9.75};
      for (int i = 0; i < 32; ++i) c->Slot(i, kSlots[i % 8]);
    }
    partial.Bind(0, Tick(1, 10.5, 100, "IBM"));

    full.Bind(0, Tick(1, 10.5, 100, "IBM"));
    full.Bind(1, Tick(2, 11.0, 200, "IBM"));
    full.Bind(1, Tick(3, 12.5, 300, ""));
    full.Bind(2, Tick(4, 9.0, 400, "MSFT"));
    full.Candidate(1, &candidate_plain);

    extreme.Bind(0, Tick(10, kNan, kI64Max, ""));
    extreme.Bind(1, Tick(11, -0.0, kI64Min, "hello world"));
    extreme.Bind(2, Tick(12, kInf, 0, "a"));
    extreme.Candidate(1, &candidate_extreme);
  }

  Event candidate_plain = Tick(5, 10.75, 150, "IBM");
  Event candidate_extreme = Tick(13, -kInf, -1, "");
  FakeContext empty{3};
  FakeContext partial{3};
  FakeContext full{3};
  FakeContext extreme{3};
};

/// Evaluates `expr` with the reference and the VM against `ctx` and asserts
/// equivalence of ReferenceEvaluate/VmEvaluate, the predicate pair (bool
/// roots) and the score pair (numeric roots).
void CheckEquivalent(const Expr& expr, const BytecodeProgram& prog,
                     const EvalContext& ctx, VmState* vm, const char* which) {
  const Result<Value> ast = ReferenceEvaluate(expr, ctx);
  const Result<Value> bc = VmEvaluate(prog, ctx, vm);
  ASSERT_EQ(ast.ok(), bc.ok())
      << which << ": status mismatch for " << expr.ToString() << "\n  ast: "
      << ast.status().ToString() << "\n  vm:  " << bc.status().ToString();
  if (!ast.ok()) {
    EXPECT_EQ(ast.status().code(), bc.status().code()) << expr.ToString();
  } else {
    EXPECT_TRUE(BitIdentical(*ast, *bc))
        << which << ": value mismatch for " << expr.ToString()
        << "\n  ast: " << ast->ToString() << "\n  vm:  " << bc->ToString();
  }

  if (expr.result_type == ValueType::kBool) {
    const Result<bool> ap = ReferenceEvaluatePredicate(expr, ctx);
    const Result<bool> bp = VmEvaluatePredicate(prog, ctx, vm);
    ASSERT_EQ(ap.ok(), bp.ok()) << expr.ToString();
    if (ap.ok()) {
      EXPECT_EQ(*ap, *bp) << expr.ToString();
    } else {
      EXPECT_EQ(ap.status().code(), bp.status().code()) << expr.ToString();
    }
  }
  if (expr.result_type == ValueType::kInt ||
      expr.result_type == ValueType::kFloat) {
    const double as = ReferenceEvaluateScore(expr, ctx);
    const double bs = VmEvaluateScore(prog, ctx, vm);
    if (std::isnan(as) || std::isnan(bs)) {
      EXPECT_TRUE(std::isnan(as) && std::isnan(bs)) << expr.ToString();
    } else {
      EXPECT_EQ(as, bs) << expr.ToString();
    }
  }
}

void RunFuzz(uint64_t seed, GenType root, ExprContext tc_context,
             bool allow_iter, int iterations) {
  std::mt19937_64 rng(seed);
  TreeGen gen(&rng, allow_iter);
  const BindingLayout layout = AbcLayout();
  Contexts ctxs;
  VmState vm;

  int accepted = 0;
  for (int i = 0; i < iterations; ++i) {
    ExprPtr e = gen.Gen(root, 4);
    if (!TypeCheck(e.get(), layout, tc_context).ok()) continue;
    std::vector<Expr*> roots = {e.get()};
    AssignAggSlots(roots);

    auto prog = CompileToBytecode(*e);
    ASSERT_TRUE(prog.ok()) << "compile failed: " << e->ToString() << " — "
                           << prog.status().ToString();
    ++accepted;

    CheckEquivalent(*e, *prog, ctxs.empty, &vm, "empty");
    CheckEquivalent(*e, *prog, ctxs.partial, &vm, "partial");
    CheckEquivalent(*e, *prog, ctxs.full, &vm, "full");
    CheckEquivalent(*e, *prog, ctxs.extreme, &vm, "extreme");
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "first divergence at iteration " << i;
      return;
    }
  }
  // The generator mixes INT/FLOAT loosely and sprinkles NULL literals, so
  // some trees fail TypeCheck — but most must survive or the fuzz is hollow.
  EXPECT_GE(accepted, iterations / 2) << "generator accept rate collapsed";
}

TEST(BytecodeEquivalence, FuzzPredicates) {
  RunFuzz(/*seed=*/0xCE9B1u, GenType::kBool, ExprContext::kPredicate,
          /*allow_iter=*/true, /*iterations=*/400);
}

TEST(BytecodeEquivalence, FuzzNumericOutputs) {
  RunFuzz(/*seed=*/0x5EED2u, GenType::kNum, ExprContext::kOutput,
          /*allow_iter=*/false, /*iterations=*/400);
}

TEST(BytecodeEquivalence, FuzzStringOutputs) {
  RunFuzz(/*seed=*/0x5EED3u, GenType::kStr, ExprContext::kOutput,
          /*allow_iter=*/false, /*iterations=*/300);
}

// The type checker rejects ill-typed trees, but the evaluators still carry
// runtime type guards (events could in principle disagree with the schema).
// Both evaluators must fail with the same status code on the same trees.
TEST(BytecodeEquivalence, MalformedTreesErrorIdentically) {
  Contexts ctxs;
  VmState vm;

  std::vector<ExprPtr> trees;
  // AND over a non-bool operand: the lhs/rhs bool checks happen at runtime.
  trees.push_back(Expr::Binary(BinaryOp::kAnd, Expr::Literal(Value::Int(1)),
                               Expr::Literal(Value::Bool(false))));
  trees.push_back(Expr::Binary(BinaryOp::kOr, Expr::Literal(Value::Bool(false)),
                               Expr::Literal(Value::String("x"))));
  // Arithmetic / comparison on mismatched runtime types.
  trees.push_back(Expr::Binary(BinaryOp::kAdd, Expr::Literal(Value::Int(1)),
                               Expr::Literal(Value::String("x"))));
  trees.push_back(Expr::Binary(BinaryOp::kLt, Expr::Literal(Value::Bool(true)),
                               Expr::Literal(Value::Int(0))));
  trees.push_back(Expr::Binary(BinaryOp::kMod, Expr::Literal(Value::Float(1.5)),
                               Expr::Literal(Value::Int(2))));
  trees.push_back(
      Expr::Unary(UnaryOp::kNot, Expr::Literal(Value::Int(3))));
  trees.push_back(
      Expr::Unary(UnaryOp::kNeg, Expr::Literal(Value::String("x"))));
  {
    std::vector<ExprPtr> args;
    args.push_back(Expr::Literal(Value::String("x")));
    trees.push_back(Expr::Func(ScalarFunc::kAbs, std::move(args)));
  }

  // Note: not every tree errors — e.g. `1 AND FALSE` short-circuits on the
  // FALSE rhs before the lhs bool check fires, in both evaluators. The
  // property under test is only that the two evaluators agree.
  int errored = 0;
  for (const ExprPtr& e : trees) {
    // Deliberately skip TypeCheck; set a plausible static type by hand.
    e->result_type = ValueType::kBool;
    auto prog = CompileToBytecode(*e);
    ASSERT_TRUE(prog.ok()) << e->ToString();
    const Result<Value> ast = ReferenceEvaluate(*e, ctxs.full);
    const Result<Value> bc = VmEvaluate(*prog, ctxs.full, &vm);
    ASSERT_EQ(ast.ok(), bc.ok()) << e->ToString();
    if (!ast.ok()) {
      ++errored;
      EXPECT_EQ(ast.status().code(), bc.status().code()) << e->ToString();
    } else {
      EXPECT_TRUE(BitIdentical(*ast, *bc)) << e->ToString();
    }

    const Result<bool> ap = ReferenceEvaluatePredicate(*e, ctxs.full);
    const Result<bool> bp = VmEvaluatePredicate(*prog, ctxs.full, &vm);
    ASSERT_EQ(ap.ok(), bp.ok()) << e->ToString();
    if (!ap.ok()) {
      EXPECT_EQ(ap.status().code(), bp.status().code()) << e->ToString();
    } else {
      EXPECT_EQ(*ap, *bp) << e->ToString();
    }
  }
  EXPECT_GE(errored, 5);

  // A non-bool root makes the predicate entry points error identically.
  ExprPtr num = Expr::Literal(Value::Int(7));
  num->result_type = ValueType::kInt;
  auto prog = CompileToBytecode(*num);
  ASSERT_TRUE(prog.ok());
  const Result<bool> ap = ReferenceEvaluatePredicate(*num, ctxs.empty);
  const Result<bool> bp = VmEvaluatePredicate(*prog, ctxs.empty, &vm);
  ASSERT_FALSE(ap.ok());
  ASSERT_FALSE(bp.ok());
  EXPECT_EQ(ap.status().code(), bp.status().code());
}

// Directed cases for the trickiest mirrored semantics, checked across every
// context so NULL paths and extreme payloads are both exercised.
TEST(BytecodeEquivalence, DirectedArithmeticAndPromotionCases) {
  const BindingLayout layout = AbcLayout();
  Contexts ctxs;
  VmState vm;

  const auto check = [&](ExprPtr e) {
    ASSERT_TRUE(TypeCheck(e.get(), layout, ExprContext::kOutput).ok())
        << e->ToString();
    std::vector<Expr*> roots = {e.get()};
    AssignAggSlots(roots);
    auto prog = CompileToBytecode(*e);
    ASSERT_TRUE(prog.ok()) << e->ToString();
    CheckEquivalent(*e, *prog, ctxs.empty, &vm, "empty");
    CheckEquivalent(*e, *prog, ctxs.full, &vm, "full");
    CheckEquivalent(*e, *prog, ctxs.extreme, &vm, "extreme");
  };

  // Overflow-to-NULL and the % -1 guard.
  check(Expr::Binary(BinaryOp::kAdd, Expr::Literal(Value::Int(kI64Max)),
                     Expr::Literal(Value::Int(1))));
  check(Expr::Binary(BinaryOp::kMul, Expr::Literal(Value::Int(kI64Min)),
                     Expr::Literal(Value::Int(-1))));
  check(Expr::Binary(BinaryOp::kMod, Expr::Literal(Value::Int(kI64Min)),
                     Expr::Literal(Value::Int(-1))));
  check(Expr::Unary(UnaryOp::kNeg, Expr::Literal(Value::Int(kI64Min))));

  // CASE INT->FLOAT promotion (WHEN branch and ELSE branch).
  {
    std::vector<ExprPtr> kids;
    kids.push_back(Expr::Binary(BinaryOp::kGt, Expr::VarRef("a", "price"),
                                Expr::Literal(Value::Float(10.0))));
    kids.push_back(Expr::Literal(Value::Int((int64_t{1} << 53) + 1)));
    kids.push_back(Expr::Literal(Value::Float(0.5)));  // ELSE
    check(Expr::Case(std::move(kids), /*has_else=*/true));
  }

  // Value::operator== double-compare for INT equality is intentionally
  // preserved: INT64_MAX = INT64_MAX-1 is TRUE in both evaluators.
  check(Expr::Binary(BinaryOp::kEq, Expr::Literal(Value::Int(kI64Max)),
                     Expr::Literal(Value::Int(kI64Max - 1))));
  // ...but ordering comparisons are exact in both.
  check(Expr::Binary(BinaryOp::kGt, Expr::Literal(Value::Int(kI64Max)),
                     Expr::Literal(Value::Int(kI64Max - 1))));

  // NULL = NULL is TRUE, NULL = x is NULL; NULL <> NULL is FALSE.
  check(Expr::Binary(BinaryOp::kEq, Expr::Literal(Value::Null()),
                     Expr::Literal(Value::Null())));
  check(Expr::Binary(BinaryOp::kNe, Expr::Literal(Value::Null()),
                     Expr::Literal(Value::Null())));
  check(Expr::Binary(BinaryOp::kEq, Expr::Literal(Value::Null()),
                     Expr::Literal(Value::Int(3))));

  // Float->int casts at the representability boundary.
  {
    std::vector<ExprPtr> args;
    args.push_back(Expr::Literal(Value::Float(9223372036854775808.0)));
    check(Expr::Func(ScalarFunc::kFloor, std::move(args)));
  }
  {
    std::vector<ExprPtr> args;
    args.push_back(Expr::Literal(Value::Float(-9223372036854775808.0)));
    check(Expr::Func(ScalarFunc::kCeil, std::move(args)));
  }
  {
    std::vector<ExprPtr> args;
    args.push_back(Expr::Literal(Value::Float(kNan)));
    check(Expr::Func(ScalarFunc::kRound, std::move(args)));
  }

  // SUBSTR evaluates all three children before the NULL check; CONCAT
  // short-circuits per child.
  {
    std::vector<ExprPtr> args;
    args.push_back(Expr::Literal(Value::String("hello world")));
    args.push_back(Expr::Literal(Value::Int(-3)));
    args.push_back(Expr::Literal(Value::Int(7)));
    check(Expr::Func(ScalarFunc::kSubstr, std::move(args)));
  }
  {
    std::vector<ExprPtr> args;
    args.push_back(Expr::Literal(Value::String("x")));
    args.push_back(Expr::VarRef("a", "symbol"));  // NULL in the empty ctx
    args.push_back(Expr::Literal(Value::String("y")));
    check(Expr::Func(ScalarFunc::kConcat, std::move(args)));
  }
}

}  // namespace
}  // namespace cepr
