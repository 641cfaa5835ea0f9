#include "lang/parser.h"

#include <regex>
#include <string>

#include <gtest/gtest.h>

#include "expr/bytecode.h"

namespace cepr {
namespace {

// Every parse error names its position as "line N, column M".
void ExpectPositionedParseError(const Status& st) {
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  EXPECT_TRUE(std::regex_search(st.message(),
                                std::regex("line [0-9]+, column [0-9]+")))
      << st.ToString();
}

void ExpectTooDeep(const Status& st) {
  ExpectPositionedParseError(st);
  EXPECT_NE(st.message().find("nested deeper than " +
                              std::to_string(kMaxExprNesting) + " levels"),
            std::string::npos)
      << st.ToString();
}

void ExpectTooTall(const Status& st) {
  ExpectPositionedParseError(st);
  EXPECT_NE(st.message().find("taller than " + std::to_string(kMaxExprHeight) +
                              " levels"),
            std::string::npos)
      << st.ToString();
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

constexpr char kFullQuery[] =
    "SELECT a.symbol, a.price AS start, LAST(b).price, c.price "
    "FROM Stock "
    "MATCH PATTERN SEQ(a, b+, !n, c) "
    "USING SKIP_TILL_ANY_MATCH "
    "PARTITION BY symbol "
    "WHERE a.price > 20 AND b[i].price < b[i-1].price AND c.price > a.price "
    "WITHIN 10 MINUTES "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 5 "
    "EMIT ON WINDOW CLOSE;";

TEST(ParserTest, FullQueryParses) {
  auto q = ParseQuery(kFullQuery);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->stream_name, "Stock");
  EXPECT_EQ(q->select.size(), 4u);
  EXPECT_EQ(q->select[1].alias, "start");
  ASSERT_EQ(q->pattern.size(), 4u);
  EXPECT_EQ(q->pattern[0].var, "a");
  EXPECT_FALSE(q->pattern[0].kleene);
  EXPECT_TRUE(q->pattern[1].kleene);
  EXPECT_TRUE(q->pattern[2].negated);
  EXPECT_EQ(q->pattern[2].var, "n");
  EXPECT_EQ(q->strategy, SelectionStrategy::kSkipTillAny);
  EXPECT_EQ(q->partition_attr, "symbol");
  ASSERT_NE(q->where, nullptr);
  EXPECT_EQ(q->within_micros, 10 * kMicrosPerMinute);
  ASSERT_NE(q->rank_by, nullptr);
  EXPECT_TRUE(q->rank_desc);
  EXPECT_EQ(q->limit, 5);
  EXPECT_EQ(q->emit, EmitPolicy::kOnWindowClose);
}

TEST(ParserTest, MinimalQueryDefaults) {
  auto q = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(x)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->select.empty());  // SELECT *
  EXPECT_EQ(q->strategy, SelectionStrategy::kSkipTillNext);
  EXPECT_TRUE(q->partition_attr.empty());
  EXPECT_EQ(q->where, nullptr);
  EXPECT_EQ(q->within_micros, 0);
  EXPECT_EQ(q->rank_by, nullptr);
  EXPECT_EQ(q->limit, -1);
  EXPECT_EQ(q->emit, EmitPolicy::kOnComplete);
}

TEST(ParserTest, TypedPatternComponents) {
  auto q = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(Buy a, Sell b+)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->pattern[0].type_tag, "Buy");
  EXPECT_EQ(q->pattern[0].var, "a");
  EXPECT_EQ(q->pattern[1].type_tag, "Sell");
  EXPECT_TRUE(q->pattern[1].kleene);
}

TEST(ParserTest, StrategySpellings) {
  for (const auto& [text, expect] :
       std::vector<std::pair<std::string, SelectionStrategy>>{
           {"STRICT", SelectionStrategy::kStrictContiguity},
           {"strict_contiguity", SelectionStrategy::kStrictContiguity},
           {"skip_till_next_match", SelectionStrategy::kSkipTillNext},
           {"SKIP_TILL_ANY_MATCH", SelectionStrategy::kSkipTillAny}}) {
    auto q = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) USING " + text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    EXPECT_EQ(q->strategy, expect) << text;
  }
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) USING bogus").ok());
}

TEST(ParserTest, TimeUnits) {
  for (const auto& [unit, micros] :
       std::vector<std::pair<std::string, Timestamp>>{
           {"MICROSECONDS", 1},
           {"MILLISECONDS", 1000},
           {"SECONDS", kMicrosPerSecond},
           {"MINUTES", kMicrosPerMinute},
           {"HOURS", kMicrosPerHour},
           {"second", kMicrosPerSecond}}) {
    auto q =
        ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) WITHIN 2 " + unit);
    ASSERT_TRUE(q.ok()) << unit;
    EXPECT_EQ(q->within_micros, 2 * micros) << unit;
  }
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) WITHIN 2 fortnights").ok());
}

TEST(ParserTest, RankAscDesc) {
  auto asc = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) RANK BY a.x ASC");
  ASSERT_TRUE(asc.ok());
  EXPECT_FALSE(asc->rank_desc);
  auto def = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) RANK BY a.x");
  ASSERT_TRUE(def.ok());
  EXPECT_TRUE(def->rank_desc);  // DESC is the default
}

TEST(ParserTest, EmitVariants) {
  auto complete =
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT ON COMPLETE");
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(complete->emit, EmitPolicy::kOnComplete);

  auto every =
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT EVERY 100 EVENTS");
  ASSERT_TRUE(every.ok());
  EXPECT_EQ(every->emit, EmitPolicy::kEveryNEvents);
  EXPECT_EQ(every->emit_every_n, 100);

  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT EVERY 0 EVENTS").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) EMIT ON SUNSET").ok());
}

TEST(ParserTest, NegativeLimitRejected) {
  // The '-' cannot even start an integer here: the lexer makes it its own
  // token, so the parser rejects it where the integer should be.
  auto r = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) LIMIT -1");
  ASSERT_FALSE(r.ok());
  ExpectPositionedParseError(r.status());
  EXPECT_NE(r.status().message().find("expected integer after LIMIT"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("line 1, column 44"), std::string::npos)
      << r.status().ToString();
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = ParseExpression("1 + 2 * 3 < 4 AND NOT 5 > 6 OR FALSE").value();
  // ((1 + (2*3)) < 4 AND NOT (5 > 6)) OR FALSE
  EXPECT_EQ(e->ToString(),
            "((((1 + (2 * 3)) < 4) AND NOT ((5 > 6))) OR FALSE)");
}

TEST(ParserTest, UnaryMinusBindsTighterThanMul) {
  auto e = ParseExpression("-2 * 3").value();
  EXPECT_EQ(e->ToString(), "(-(2) * 3)");
}

TEST(ParserTest, IterationIndexForms) {
  EXPECT_EQ(ParseExpression("b[i].x").value()->iter_kind, IterKind::kCurrent);
  EXPECT_EQ(ParseExpression("b[i-1].x").value()->iter_kind, IterKind::kPrev);
  EXPECT_EQ(ParseExpression("b[1].x").value()->iter_kind, IterKind::kFirst);
  EXPECT_FALSE(ParseExpression("b[2].x").ok());
  EXPECT_FALSE(ParseExpression("b[i-2].x").ok());
  EXPECT_FALSE(ParseExpression("b[j].x").ok());
}

TEST(ParserTest, AggregateSyntax) {
  auto min = ParseExpression("MIN(b.price)").value();
  EXPECT_EQ(min->kind, ExprKind::kAggregate);
  EXPECT_EQ(min->agg_func, AggFunc::kMin);
  EXPECT_EQ(min->var_name, "b");
  EXPECT_EQ(min->attr_name, "price");

  auto count = ParseExpression("COUNT(b)").value();
  EXPECT_EQ(count->agg_func, AggFunc::kCount);
  EXPECT_TRUE(count->attr_name.empty());

  auto first = ParseExpression("FIRST(b).price").value();
  EXPECT_EQ(first->agg_func, AggFunc::kFirst);
  EXPECT_EQ(first->attr_name, "price");

  EXPECT_FALSE(ParseExpression("MIN(b)").ok());
  EXPECT_FALSE(ParseExpression("FIRST(b)").ok());
  EXPECT_FALSE(ParseExpression("COUNT(b.price)").ok());
}

TEST(ParserTest, UnknownFunctionRejected) {
  auto r = ParseExpression("FROBNICATE(x.y)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown function"), std::string::npos);
}

TEST(ParserTest, BareIdentifierIsError) {
  EXPECT_FALSE(ParseExpression("price").ok());
  EXPECT_FALSE(ParseExpression("a +").ok());
  EXPECT_FALSE(ParseExpression("(1 + 2").ok());
}

TEST(ParserTest, CreateStreamBasic) {
  auto c = ParseCreateStream(
      "CREATE STREAM Stock (symbol STRING, price FLOAT RANGE [1, 1000], "
      "volume INT);");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->name, "Stock");
  ASSERT_EQ(c->attributes.size(), 3u);
  EXPECT_EQ(c->attributes[0].type, ValueType::kString);
  ASSERT_TRUE(c->attributes[1].range.has_value());
  EXPECT_EQ(c->attributes[1].range->lo, 1.0);
  EXPECT_EQ(c->attributes[1].range->hi, 1000.0);
  EXPECT_FALSE(c->attributes[2].range.has_value());
}

TEST(ParserTest, CreateStreamNegativeRange) {
  auto c = ParseCreateStream("CREATE STREAM T (x FLOAT RANGE [-1.5, 2.5])");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->attributes[0].range->lo, -1.5);
}

TEST(ParserTest, CreateStreamErrors) {
  EXPECT_FALSE(ParseCreateStream("CREATE STREAM ()").ok());
  EXPECT_FALSE(ParseCreateStream("CREATE STREAM S (x BLOB)").ok());
  EXPECT_FALSE(ParseCreateStream("CREATE S (x INT)").ok());
}

TEST(ParserTest, StatementDispatch) {
  auto ddl = ParseStatement("CREATE STREAM S (x INT)");
  ASSERT_TRUE(ddl.ok());
  EXPECT_NE(ddl->create_stream, nullptr);
  EXPECT_EQ(ddl->query, nullptr);

  auto query = ParseStatement("SELECT * FROM S MATCH PATTERN SEQ(a)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->create_stream, nullptr);
  EXPECT_NE(query->query, nullptr);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM S MATCH PATTERN SEQ(a) garbage").ok());
  EXPECT_FALSE(ParseExpression("1 + 2 extra").ok());
}

TEST(ParserTest, ErrorsMentionPosition) {
  auto r = ParseQuery("SELECT * FROM S MATCH PATTERN SEQ()");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, SemanticErrorsNameTheOffendingToken) {
  const std::string q = "SELECT * FROM S MATCH PATTERN SEQ(a) ";
  for (const std::string& text :
       {q + "USING BOGUS", q + "WITHIN 5 FORTNIGHTS", q + "EMIT EVERY 0 EVENTS"}) {
    auto r = ParseQuery(text);
    ASSERT_FALSE(r.ok()) << text;
    ExpectPositionedParseError(r.status());
  }
  auto strategy = ParseQuery(q + "USING BOGUS");
  EXPECT_NE(strategy.status().message().find("line 1, column 44"),
            std::string::npos)
      << strategy.status().ToString();

  // The span in microseconds must fit int64 (the multiply used to overflow).
  auto span = ParseQuery(q + "WITHIN 9223372036854775807 HOURS");
  ASSERT_FALSE(span.ok());
  ExpectPositionedParseError(span.status());
  EXPECT_NE(span.status().message().find("WITHIN span out of range"),
            std::string::npos);

  auto index = ParseExpression("b[2].price");
  ASSERT_FALSE(index.ok());
  ExpectPositionedParseError(index.status());
  auto func = ParseExpression("a.price + FROBNICATE(x.y)");
  ASSERT_FALSE(func.ok());
  ExpectPositionedParseError(func.status());
  EXPECT_NE(func.status().message().find("line 1, column 11"), std::string::npos)
      << func.status().ToString();
}

// Hostile query text: each of these used to recurse without a limit in the
// parser or a later pass (or the Expr destructor) and crash the process.
TEST(ParserTest, DeeplyNestedParenthesesRejected) {
  const std::string text = Repeat("1 + (", 5000) + "1" + std::string(5000, ')');
  auto e = ParseExpression(text);
  ASSERT_FALSE(e.ok());
  ExpectTooDeep(e.status());
  auto q = ParseQuery("SELECT " + text + " FROM S MATCH PATTERN SEQ(a)");
  ASSERT_FALSE(q.ok());
  ExpectTooDeep(q.status());
}

TEST(ParserTest, LongOperatorChainRejected) {
  auto e = ParseExpression("1" + Repeat(" + 1", 200000));
  ASSERT_FALSE(e.ok());
  ExpectTooTall(e.status());
}

TEST(ParserTest, RepeatedNotRejected) {
  auto e = ParseExpression(Repeat("NOT ", 200000) + "TRUE");
  ASSERT_FALSE(e.ok());
  ExpectTooDeep(e.status());
  auto neg = ParseExpression(Repeat("- ", 200000) + "1");
  ASSERT_FALSE(neg.ok());
  ExpectTooDeep(neg.status());
}

TEST(ParserTest, HugeInListRejected) {
  auto e = ParseExpression("a.price IN (1" + Repeat(", 1", 100000) + ")");
  ASSERT_FALSE(e.ok());
  ExpectTooTall(e.status());
}

// IN and BETWEEN copy their left operand; nested, they used to double the
// tree per level (2^20 nodes here) until memory ran out.
TEST(ParserTest, NestedBetweenCannotGrowExponentially) {
  const std::string text = Repeat("(", 20) + "a.price" +
                           Repeat(" BETWEEN 1 AND 2)", 20);
  auto e = ParseExpression(text);
  ASSERT_FALSE(e.ok());
  ExpectPositionedParseError(e.status());
  EXPECT_NE(e.status().message().find("would copy more than"), std::string::npos)
      << e.status().ToString();
  // A few levels, and long IN lists within the limit, still parse.
  EXPECT_TRUE(ParseExpression(Repeat("(", 3) + "a.price" +
                              Repeat(" BETWEEN 1 AND 2)", 3))
                  .ok());
  EXPECT_TRUE(ParseExpression("a.price IN (1" + Repeat(", 1", 400) + ")").ok());
}

// Both limits are exact: nesting kMaxExprNesting levels deep and a chain of
// height kMaxExprHeight parse, one level more does not. The deepest nesting
// in the worst register shape (SUBSTR's third argument, two registers per
// level) compiles within 2 * 256 + 1 registers, past the old 8-bit file.
TEST(ParserTest, HeightLimitBoundsTheRegisterFile) {
  const auto nested_substr = [](int levels) {
    return Repeat("SUBSTR('x', 1, ", levels) + "1" + std::string(levels, ')');
  };
  auto deep = ParseExpression(nested_substr(kMaxExprNesting - 1));
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_EQ((*deep)->height, kMaxExprNesting);
  ExpectTooDeep(ParseExpression(nested_substr(kMaxExprNesting)).status());

  auto prog = CompileToBytecode(**deep);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_GT(prog->num_regs, 255);
  EXPECT_LE(prog->num_regs, 2 * kMaxExprNesting + 1);

  auto chain = ParseExpression("1" + Repeat(" + 1", kMaxExprHeight - 1));
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ((*chain)->height, kMaxExprHeight);
  ExpectTooTall(ParseExpression("1" + Repeat(" + 1", kMaxExprHeight)).status());
  auto chain_prog = CompileToBytecode(**chain);
  ASSERT_TRUE(chain_prog.ok()) << chain_prog.status().ToString();
  EXPECT_LE(chain_prog->num_regs, 2 * kMaxExprHeight + 1);
}

TEST(ParserTest, UnparseRoundTrips) {
  auto q1 = ParseQuery(kFullQuery).value();
  const std::string text = q1.ToString();
  auto q2 = ParseQuery(text);
  ASSERT_TRUE(q2.ok()) << "unparsed text failed to reparse:\n"
                       << text << "\n"
                       << q2.status().ToString();
  EXPECT_EQ(q2->ToString(), text);  // fixpoint after one round
}

TEST(ParserTest, UnparseCreateStreamRoundTrips) {
  auto c1 = ParseCreateStream(
                "CREATE STREAM S (a INT, b FLOAT RANGE [0, 1], c STRING)")
                .value();
  auto c2 = ParseCreateStream(c1.ToString());
  ASSERT_TRUE(c2.ok()) << c1.ToString();
  EXPECT_EQ(c2->ToString(), c1.ToString());
}

}  // namespace
}  // namespace cepr
