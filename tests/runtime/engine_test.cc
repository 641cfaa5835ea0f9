#include "runtime/engine.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::Tick;

constexpr char kDdl[] =
    "CREATE STREAM Stock (symbol STRING, price FLOAT RANGE [1, 1000], "
    "volume INT RANGE [1, 10000])";

constexpr char kDipQuery[] =
    "SELECT a.price, MIN(b.price), c.price "
    "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
    "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
    "  AND c.price > a.price "
    "WITHIN 10 SECONDS "
    "RANK BY a.price - MIN(b.price) DESC "
    "LIMIT 2 EMIT ON WINDOW CLOSE";

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(engine_.ExecuteDdl(kDdl).ok()); }

  Status PushPrices(const std::vector<double>& prices,
                    Timestamp step = 100 * 1000) {
    auto schema = engine_.GetSchema("Stock").value();
    Timestamp ts = 0;
    for (double p : prices) {
      CEPR_RETURN_IF_ERROR(engine_.Push(
          Event(schema, ts, {Value::String("S"), Value::Float(p), Value::Int(1)})));
      ts += step;
    }
    return Status::OK();
  }

  Engine engine_;
  CollectSink sink_;
};

TEST_F(EngineTest, DdlRegistersStream) {
  EXPECT_EQ(engine_.StreamNames(), std::vector<std::string>{"Stock"});
  EXPECT_TRUE(engine_.GetSchema("stock").ok());  // case-insensitive
  EXPECT_FALSE(engine_.GetSchema("Bond").ok());
}

TEST_F(EngineTest, DuplicateStreamRejected) {
  auto s = engine_.ExecuteDdl(kDdl);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, BadDdlRejected) {
  EXPECT_EQ(engine_.ExecuteDdl("CREATE STREAM Broken (").code(),
            StatusCode::kParseError);
}

TEST_F(EngineTest, EndToEndRankedQuery) {
  ASSERT_TRUE(
      engine_.RegisterQuery("dips", kDipQuery, QueryOptions{}, &sink_).ok());
  ASSERT_TRUE(PushPrices({100, 95, 90, 104, 110, 60, 115}).ok());
  engine_.Finish();

  ASSERT_EQ(sink_.results().size(), 2u);
  // Deepest dip first: 110 -> 60 (depth 50) beats 100 -> 90 (depth 10).
  EXPECT_DOUBLE_EQ(sink_.results()[0].match.score, 50.0);
  EXPECT_EQ(sink_.results()[0].rank, 0u);
  EXPECT_DOUBLE_EQ(sink_.results()[1].match.score, 10.0);
  EXPECT_EQ(sink_.results()[1].rank, 1u);
}

TEST_F(EngineTest, QueryAgainstUnknownStreamFails) {
  auto s = engine_.RegisterQuery(
      "q", "SELECT * FROM Nope MATCH PATTERN SEQ(a)", QueryOptions{}, &sink_);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, DuplicateQueryNameRejected) {
  ASSERT_TRUE(
      engine_.RegisterQuery("q", kDipQuery, QueryOptions{}, &sink_).ok());
  EXPECT_EQ(engine_.RegisterQuery("Q", kDipQuery, QueryOptions{}, &sink_).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, RemoveQueryFlushesIt) {
  ASSERT_TRUE(
      engine_.RegisterQuery("q", kDipQuery, QueryOptions{}, &sink_).ok());
  ASSERT_TRUE(PushPrices({100, 90, 105}).ok());
  EXPECT_TRUE(sink_.results().empty());  // window still open
  ASSERT_TRUE(engine_.RemoveQuery("q").ok());
  EXPECT_EQ(sink_.results().size(), 1u);  // flushed on removal
  EXPECT_TRUE(engine_.QueryNames().empty());
  EXPECT_EQ(engine_.RemoveQuery("q").code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, OutOfOrderEventsRejectedByDefault) {
  ASSERT_TRUE(PushPrices({10}).ok());
  auto schema = engine_.GetSchema("Stock").value();
  auto s = engine_.Push(Event(schema, -5,
                              {Value::String("S"), Value::Float(1), Value::Int(1)}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("out-of-order"), std::string::npos);
}

TEST_F(EngineTest, OutOfOrderClampedWhenConfigured) {
  EngineOptions options;
  options.late_policy = LatePolicy::kClamp;
  Engine lenient(options);
  ASSERT_TRUE(lenient.ExecuteDdl(kDdl).ok());
  auto schema = lenient.GetSchema("Stock").value();
  ASSERT_TRUE(
      lenient
          .Push(Event(schema, 100,
                      {Value::String("S"), Value::Float(1), Value::Int(1)}))
          .ok());
  ASSERT_TRUE(
      lenient
          .Push(Event(schema, 50,
                      {Value::String("S"), Value::Float(2), Value::Int(1)}))
          .ok());
  EXPECT_EQ(lenient.events_ingested(), 2u);
}

TEST_F(EngineTest, EventsGetSequenceNumbers) {
  ASSERT_TRUE(
      engine_
          .RegisterQuery("all",
                         "SELECT a.price FROM Stock MATCH PATTERN SEQ(a)",
                         QueryOptions{}, &sink_)
          .ok());
  ASSERT_TRUE(PushPrices({1, 2, 3}).ok());
  engine_.Finish();
  ASSERT_EQ(sink_.results().size(), 3u);
  EXPECT_EQ(engine_.events_ingested(), 3u);
}

TEST_F(EngineTest, UnregisteredSchemaEventRejected) {
  auto other = Schema::Make("Other", {Attribute{"x", ValueType::kInt, {}}}).value();
  auto s = engine_.Push(Event(other, 0, {Value::Int(1)}));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ArityMismatchRejected) {
  auto schema = engine_.GetSchema("Stock").value();
  auto s = engine_.Push(Event(schema, 0, {Value::String("S")}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, MultipleQueriesShareTheStream) {
  CollectSink sink2;
  ASSERT_TRUE(
      engine_.RegisterQuery("dips", kDipQuery, QueryOptions{}, &sink_).ok());
  ASSERT_TRUE(engine_
                  .RegisterQuery("spikes",
                                 "SELECT a.price FROM Stock MATCH PATTERN "
                                 "SEQ(a) WHERE a.price > 100",
                                 QueryOptions{}, &sink2)
                  .ok());
  ASSERT_TRUE(PushPrices({100, 90, 105, 110}).ok());
  engine_.Finish();
  EXPECT_EQ(sink_.results().size(), 1u);   // one dip
  EXPECT_EQ(sink2.results().size(), 2u);   // 105 and 110
}

TEST_F(EngineTest, MetricsReflectActivity) {
  ASSERT_TRUE(
      engine_.RegisterQuery("dips", kDipQuery, QueryOptions{}, &sink_).ok());
  ASSERT_TRUE(PushPrices({100, 90, 105}).ok());
  engine_.Finish();
  const QueryMetrics m = engine_.GetQuery("dips").value()->metrics();
  EXPECT_EQ(m.events, 3u);
  EXPECT_EQ(m.matches, 1u);
  EXPECT_EQ(m.results, 1u);
  EXPECT_EQ(m.event_processing_ns.count(), 3u);
  EXPECT_GT(m.matcher.runs_created, 0u);
  EXPECT_NE(m.ToString().find("events=3"), std::string::npos);
}

TEST_F(EngineTest, NullSinkAllowed) {
  ASSERT_TRUE(
      engine_.RegisterQuery("drop", kDipQuery, QueryOptions{}, nullptr).ok());
  EXPECT_TRUE(PushPrices({100, 90, 105}).ok());
  engine_.Finish();
}

// Batch with an out-of-order event at index 2 (ts regresses below the
// watermark set by index 1): the canonical mid-batch failure.
std::vector<Event> BatchWithBadThird() {
  std::vector<Event> batch;
  batch.push_back(Tick(1000, 100));
  batch.push_back(Tick(2000, 90));
  batch.push_back(Tick(500, 105));  // regression: fails validation
  batch.push_back(Tick(3000, 110));
  return batch;
}

TEST(EnginePushAllTest, FailFastNamesFailingIndexAndKeepsPrefix) {
  Engine engine;  // kFailFast is the default
  ASSERT_TRUE(engine.RegisterSchema(testing::StockSchema()).ok());
  const Status s = engine.PushAll(BatchWithBadThird());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("index 2 of 4"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(engine.events_ingested(), 2u) << "prefix before the failure stays";
  EXPECT_EQ(engine.events_quarantined(), 0u);
  // The engine is still usable: the watermark is at index 1's timestamp.
  EXPECT_TRUE(engine.Push(Tick(2500, 120)).ok());
  engine.Finish();
}

TEST(EnginePushAllTest, PieceOfALargerBatchNamesBatchPositions) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterSchema(testing::StockSchema()).ok());
  // The four events sit at [10, 14) of a 40-event batch.
  const Status s = engine.PushAll(BatchWithBadThird(), 10, 40);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("index 12 of 40 failed (prefix [0, 12) "),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(engine.events_ingested(), 2u);
  engine.Finish();
}

TEST(EnginePushAllTest, SkipAndCountSkipsBadEventsAndContinuesBatch) {
  EngineOptions engine_options;
  engine_options.fault_policy = FaultPolicy::kSkipAndCount;
  Engine engine(engine_options);
  ASSERT_TRUE(engine.RegisterSchema(testing::StockSchema()).ok());
  const Status s = engine.PushAll(BatchWithBadThird());
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(engine.events_ingested(), 3u) << "good suffix must be ingested";
  EXPECT_EQ(engine.events_quarantined(), 1u);
  engine.Finish();
}

}  // namespace
}  // namespace cepr
