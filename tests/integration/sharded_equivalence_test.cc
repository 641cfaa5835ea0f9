// Property suite for the shard backend: for every workload an Engine with
// num_shards > 0 must produce exactly the inline backend's ranked
// output — same results, same order, same ranks, same windows — at any
// shard count. This is the output-equivalence invariant the shard/merge
// design is built around (docs/ARCHITECTURE.md).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/engine.h"
#include "workload/health.h"
#include "workload/stock.h"
#include "workload/traffic.h"

namespace cepr {
namespace {

struct Workload {
  const char* label;
  SchemaPtr schema;
  std::vector<Event> events;
  std::string query;
};

Workload StockWorkload(size_t n = 6000) {
  StockOptions options;
  options.num_symbols = 6;
  options.v_probability = 0.03;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return Workload{
      "stock", gen.schema(), gen.Take(n),
      "SELECT a.symbol, a.price, MIN(b.price), c.price "
      "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
      "PARTITION BY symbol "
      "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
      "  AND c.price > a.price "
      "WITHIN 100 MILLISECONDS "
      "RANK BY (a.price - MIN(b.price)) / a.price DESC "
      "LIMIT 10 EMIT ON WINDOW CLOSE"};
}

Workload HealthWorkload(size_t n = 6000) {
  HealthOptions options;
  options.num_patients = 8;
  options.episode_probability = 0.01;
  HealthGenerator gen(options);
  return Workload{
      "health", gen.schema(), gen.Take(n),
      "SELECT a.patient, a.heart_rate, MAX(r.heart_rate) "
      "FROM Vitals MATCH PATTERN SEQ(a, r+) "
      "PARTITION BY patient "
      "WHERE r[i].heart_rate > r[i-1].heart_rate "
      "  AND r[1].heart_rate > a.heart_rate "
      "WITHIN 30 SECONDS "
      "RANK BY MAX(r.heart_rate) - a.heart_rate DESC "
      "LIMIT 5 EMIT ON WINDOW CLOSE"};
}

Workload TrafficWorkload(size_t n = 6000) {
  TrafficOptions options;
  options.num_sensors = 8;
  options.jam_probability = 0.01;
  TrafficGenerator gen(options);
  return Workload{
      "traffic", gen.schema(), gen.Take(n),
      "SELECT a.sensor, a.speed, MIN(d.speed) "
      "FROM Traffic MATCH PATTERN SEQ(a, d+) "
      "PARTITION BY sensor "
      "WHERE d[i].speed < d[i-1].speed AND d[1].speed < a.speed "
      "WITHIN 10 SECONDS "
      "RANK BY a.speed - MIN(d.speed) DESC "
      "LIMIT 3 EMIT ON WINDOW CLOSE"};
}

EngineOptions WithShards(size_t num_shards) {
  EngineOptions options;
  options.num_shards = num_shards;
  return options;
}

std::vector<RankedResult> RunSerial(const Workload& w, RankerPolicy policy) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  QueryOptions options;
  options.ranker = policy;
  const Status s = engine.RegisterQuery("q", w.query, options, &sink);
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (const Event& e : w.events) {
    const Status push = engine.Push(Event(e));
    EXPECT_TRUE(push.ok()) << push.ToString();
  }
  engine.Finish();
  return sink.results();
}

std::vector<RankedResult> RunSharded(const Workload& w, RankerPolicy policy,
                                     size_t num_shards) {
  EngineOptions engine_options;
  engine_options.num_shards = num_shards;
  Engine engine(engine_options);
  EXPECT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  QueryOptions options;
  options.ranker = policy;
  const Status s = engine.RegisterQuery("q", w.query, options, &sink);
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (const Event& e : w.events) {
    const Status push = engine.Push(Event(e));
    EXPECT_TRUE(push.ok()) << push.ToString();
  }
  engine.Finish();
  return sink.results();
}

void ExpectIdentical(const std::vector<RankedResult>& serial,
                     const std::vector<RankedResult>& sharded,
                     const std::string& label) {
  ASSERT_EQ(serial.size(), sharded.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].window_id, sharded[i].window_id) << label << " @" << i;
    EXPECT_EQ(serial[i].rank, sharded[i].rank) << label << " @" << i;
    EXPECT_EQ(serial[i].provisional, sharded[i].provisional) << label << " @" << i;
    // Identity is the full match content: span, detecting position, score,
    // output row. (match.id is matcher-local and differs by design.)
    EXPECT_EQ(serial[i].match.first_ts, sharded[i].match.first_ts)
        << label << " @" << i;
    EXPECT_EQ(serial[i].match.last_ts, sharded[i].match.last_ts)
        << label << " @" << i;
    EXPECT_EQ(serial[i].match.last_sequence, sharded[i].match.last_sequence)
        << label << " @" << i;
    EXPECT_DOUBLE_EQ(serial[i].match.score, sharded[i].match.score)
        << label << " @" << i;
    EXPECT_EQ(serial[i].match.row, sharded[i].match.row) << label << " @" << i;
  }
}

class ShardedEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedEquivalenceTest, StockIdenticalToSerial) {
  const Workload w = StockWorkload();
  const auto serial = RunSerial(w, RankerPolicy::kPruned);
  EXPECT_FALSE(serial.empty()) << "workload produced no results; weak test";
  ExpectIdentical(serial, RunSharded(w, RankerPolicy::kPruned, GetParam()),
                  "stock shards=" + std::to_string(GetParam()));
}

TEST_P(ShardedEquivalenceTest, HealthIdenticalToSerial) {
  const Workload w = HealthWorkload();
  const auto serial = RunSerial(w, RankerPolicy::kPruned);
  EXPECT_FALSE(serial.empty()) << "workload produced no results; weak test";
  ExpectIdentical(serial, RunSharded(w, RankerPolicy::kPruned, GetParam()),
                  "health shards=" + std::to_string(GetParam()));
}

TEST_P(ShardedEquivalenceTest, TrafficIdenticalToSerial) {
  const Workload w = TrafficWorkload();
  const auto serial = RunSerial(w, RankerPolicy::kPruned);
  EXPECT_FALSE(serial.empty()) << "workload produced no results; weak test";
  ExpectIdentical(serial, RunSharded(w, RankerPolicy::kPruned, GetParam()),
                  "traffic shards=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalenceTest,
                         ::testing::Values(1, 2, 4));

TEST(ShardedEquivalenceModesTest, HeapPolicyAndCrossPolicy) {
  // The sharded heap configuration must equal both the serial heap and the
  // serial naive-sort reference (policy equivalence composes with shard
  // equivalence).
  const Workload w = StockWorkload(4000);
  const auto serial_naive = RunSerial(w, RankerPolicy::kNaiveSort);
  const auto sharded_heap = RunSharded(w, RankerPolicy::kHeap, 4);
  ExpectIdentical(serial_naive, sharded_heap, "naive-vs-sharded-heap");
}

TEST(ShardedEquivalenceModesTest, CountWindowsAndUnpartitioned) {
  // EMIT EVERY n EVENTS (count-based report windows, global ordinals) on
  // an unpartitioned query: the whole stream runs on one pinned shard and
  // must still match the serial engine exactly.
  Workload w = StockWorkload(4000);
  w.query =
      "SELECT a.price, MIN(b.price) "
      "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
      "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
      "  AND c.price > a.price "
      "WITHIN 50 MILLISECONDS "
      "RANK BY a.price - MIN(b.price) DESC "
      "LIMIT 5 EMIT EVERY 500 EVENTS";
  const auto serial = RunSerial(w, RankerPolicy::kHeap);
  EXPECT_FALSE(serial.empty()) << "workload produced no results; weak test";
  ExpectIdentical(serial, RunSharded(w, RankerPolicy::kHeap, 3),
                  "count-window-unpartitioned");
}

TEST(ShardedEquivalenceModesTest, PassthroughDetectionOrder) {
  // No RANK BY: detection-order (passthrough) emission, merged across
  // shards by detecting-event position.
  Workload w = StockWorkload(4000);
  w.query =
      "SELECT a.symbol, a.price "
      "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
      "PARTITION BY symbol "
      "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
      "  AND c.price > a.price "
      "WITHIN 50 MILLISECONDS "
      "LIMIT 20 EMIT EVERY 1000 EVENTS";
  const auto serial = RunSerial(w, RankerPolicy::kPassthrough);
  EXPECT_FALSE(serial.empty()) << "workload produced no results; weak test";
  ExpectIdentical(serial, RunSharded(w, RankerPolicy::kPassthrough, 4),
                  "passthrough");
}

TEST(ShardedEquivalenceModesTest, RepeatedRunsIdentical) {
  const Workload w = StockWorkload(3000);
  const auto r1 = RunSharded(w, RankerPolicy::kPruned, 4);
  const auto r2 = RunSharded(w, RankerPolicy::kPruned, 4);
  ExpectIdentical(r1, r2, "repeat");
}

TEST(ShardedEngineApiTest, RejectsEagerEmission) {
  Engine engine(WithShards(4));
  ASSERT_TRUE(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  CollectSink sink;
  const Status s = engine.RegisterQuery(
      "q",
      "SELECT a.price FROM Stock MATCH PATTERN SEQ(a) WHERE a.price > 0 "
      "RANK BY a.price DESC LIMIT 1 EMIT ON COMPLETE",
      QueryOptions{}, &sink);
  EXPECT_FALSE(s.ok());
}

TEST(ShardedEngineApiTest, RejectsDerivedStreams) {
  Engine engine(WithShards(4));
  ASSERT_TRUE(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  const Status s = engine.RegisterQuery(
      "q",
      "SELECT a.price AS p FROM Stock MATCH PATTERN SEQ(a) WHERE a.price > 0 "
      "WITHIN 1 SECONDS RANK BY a.price DESC EMIT ON WINDOW CLOSE "
      "INTO Derived",
      QueryOptions{}, nullptr);
  EXPECT_FALSE(s.ok());
}

TEST(ShardedEngineApiTest, RejectsRegistrationAfterStart) {
  Workload w = StockWorkload(10);
  EngineOptions options;
  options.num_shards = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  ASSERT_TRUE(engine.RegisterQuery("q1", w.query, QueryOptions{}, &sink).ok());
  ASSERT_TRUE(engine.Push(Event(w.events[0])).ok());
  const Status late =
      engine.RegisterQuery("q2", w.query, QueryOptions{}, &sink);
  EXPECT_FALSE(late.ok());
  engine.Finish();
  EXPECT_FALSE(engine.Push(Event(w.events[1])).ok());  // terminal
}

TEST(ShardedEngineApiTest, OutOfOrderRejectionParityWithSerial) {
  // Default strict ingest: a timestamp regression must be rejected by the
  // serial and sharded engines identically (same code, stream untouched).
  const Workload w = StockWorkload(10);
  Engine serial;
  ASSERT_TRUE(serial.RegisterSchema(w.schema).ok());
  Engine sharded(WithShards(4));
  ASSERT_TRUE(sharded.RegisterSchema(w.schema).ok());

  ASSERT_TRUE(serial.Push(Event(w.events[5])).ok());
  ASSERT_TRUE(sharded.Push(Event(w.events[5])).ok());
  const Status s1 = serial.Push(Event(w.events[0]));
  const Status s2 = sharded.Push(Event(w.events[0]));
  EXPECT_FALSE(s1.ok());
  EXPECT_FALSE(s2.ok());
  EXPECT_EQ(s1.code(), s2.code());
  // The rejected event was not ingested on either side.
  EXPECT_EQ(serial.events_ingested(), 1u);
  EXPECT_EQ(sharded.events_ingested(), 1u);
  sharded.Finish();
}

TEST(ShardedEngineApiTest, ConfigureStreamIngestClampParity) {
  // Per-stream clamp opt-in (what EMIT INTO derived streams get on the
  // serial engine) behaves identically on both engines: the regression is
  // admitted, clamped, and counted.
  const Workload w = StockWorkload(10);
  Engine serial;
  ASSERT_TRUE(serial.RegisterSchema(w.schema).ok());
  Engine sharded(WithShards(4));
  ASSERT_TRUE(sharded.RegisterSchema(w.schema).ok());
  const ReorderConfig clamp{0, LatePolicy::kClamp};
  ASSERT_TRUE(serial.ConfigureStreamIngest("Stock", clamp).ok());
  ASSERT_TRUE(sharded.ConfigureStreamIngest("Stock", clamp).ok());

  ASSERT_TRUE(serial.Push(Event(w.events[5])).ok());
  ASSERT_TRUE(sharded.Push(Event(w.events[5])).ok());
  EXPECT_TRUE(serial.Push(Event(w.events[0])).ok());
  EXPECT_TRUE(sharded.Push(Event(w.events[0])).ok());
  EXPECT_EQ(serial.events_ingested(), 2u);
  EXPECT_EQ(sharded.events_ingested(), 2u);
  EXPECT_EQ(serial.Snapshot().reorder.events_clamped, 1u);
  EXPECT_EQ(sharded.Snapshot().reorder.events_clamped, 1u);

  // Reconfiguring after the first event is refused on both engines.
  EXPECT_FALSE(serial.ConfigureStreamIngest("Stock", clamp).ok());
  EXPECT_FALSE(sharded.ConfigureStreamIngest("Stock", clamp).ok());
  sharded.Finish();
}

TEST(ShardedEngineApiTest, MetricsAddUpAfterFinish) {
  const Workload w = StockWorkload(3000);
  EngineOptions options;
  options.num_shards = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  ASSERT_TRUE(engine.RegisterQuery("q", w.query, QueryOptions{}, &sink).ok());
  for (const Event& e : w.events) ASSERT_TRUE(engine.Push(Event(e)).ok());
  engine.Finish();

  EXPECT_EQ(engine.events_ingested(), w.events.size());
  const QueryMetrics m = engine.GetQueryMetrics("q").value();
  EXPECT_EQ(m.events, w.events.size());
  EXPECT_EQ(m.results, sink.results().size());

  uint64_t shard_events = 0;
  for (const ShardStats& s : engine.shard_stats()) shard_events += s.events;
  EXPECT_EQ(shard_events, w.events.size());
  EXPECT_GT(engine.merge_stats().windows_merged, 0u);
  EXPECT_EQ(engine.merge_stats().results_emitted, sink.results().size());
}

// Every capability the shard backend lacks, pinned by status code and
// message text; the inline backend accepts each operation.
TEST(ShardedEngineApiTest, CapabilityChecksPinCodeAndText) {
  enum class Op {
    kEmitOnComplete,
    kEmitInto,
    kRegisterAfterPush,
    kRemoveQuery,
    kPushAfterFinish,
    kFlushAfterFinish,
  };
  struct Check {
    Op op;
    StatusCode sharded_code;
    const char* text;
  };
  const Check checks[] = {
      {Op::kEmitOnComplete, StatusCode::kInvalidArgument,
       "sharded engine: EMIT ON COMPLETE (eager emission) is "
       "order-dependent across shards"},
      {Op::kEmitInto, StatusCode::kInvalidArgument,
       "sharded engine: EMIT INTO derived streams are not supported"},
      {Op::kRegisterAfterPush, StatusCode::kInvalidArgument,
       "sharded engine: queries must be registered before the first Push"},
      {Op::kRemoveQuery, StatusCode::kUnimplemented,
       "undeploy requires the serial engine: sharded queries are fixed at "
       "start"},
      {Op::kPushAfterFinish, StatusCode::kInvalidArgument,
       "sharded engine is finished"},
      {Op::kFlushAfterFinish, StatusCode::kInvalidArgument,
       "sharded engine is finished"},
  };
  const std::string windowed =
      "SELECT a.price FROM Stock MATCH PATTERN SEQ(a) WHERE a.price > 0 "
      "WITHIN 1 SECONDS RANK BY a.price DESC LIMIT 1 EMIT ON WINDOW CLOSE";
  const auto run = [&](Engine& engine, Op op) -> Status {
    StockGenerator gen(StockOptions{});
    EXPECT_TRUE(engine.RegisterSchema(gen.schema()).ok());
    CollectSink sink;
    switch (op) {
      case Op::kEmitOnComplete:
        return engine.RegisterQuery(
            "q",
            "SELECT a.price FROM Stock MATCH PATTERN SEQ(a) WHERE a.price > 0 "
            "RANK BY a.price DESC LIMIT 1 EMIT ON COMPLETE",
            QueryOptions{}, &sink);
      case Op::kEmitInto:
        return engine.RegisterQuery(
            "q",
            "SELECT a.price AS p FROM Stock MATCH PATTERN SEQ(a) "
            "WHERE a.price > 0 WITHIN 1 SECONDS RANK BY a.price DESC "
            "EMIT ON WINDOW CLOSE INTO Derived",
            QueryOptions{}, nullptr);
      case Op::kRegisterAfterPush:
        EXPECT_TRUE(engine.Push(gen.Next()).ok());
        return engine.RegisterQuery("q", windowed, QueryOptions{}, &sink);
      case Op::kRemoveQuery:
        EXPECT_TRUE(
            engine.RegisterQuery("q", windowed, QueryOptions{}, &sink).ok());
        return engine.RemoveQuery("q");
      case Op::kPushAfterFinish:
        engine.Finish();
        return engine.Push(gen.Next());
      case Op::kFlushAfterFinish:
        engine.Finish();
        return engine.Flush();
    }
    return Status::OK();
  };
  for (const Check& check : checks) {
    SCOPED_TRACE(check.text);
    Engine inline_engine(WithShards(0));
    const Status accepted = run(inline_engine, check.op);
    EXPECT_TRUE(accepted.ok()) << accepted.ToString();
    Engine sharded(WithShards(2));
    const Status refused = run(sharded, check.op);
    EXPECT_EQ(refused.code(), check.sharded_code) << refused.ToString();
    EXPECT_NE(refused.message().find(check.text), std::string::npos)
        << refused.ToString();
    sharded.Finish();
  }
}

}  // namespace
}  // namespace cepr
