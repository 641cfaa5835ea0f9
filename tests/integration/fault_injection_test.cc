// Fault containment under a deterministic injected fault schedule: the
// same seeded FaultInjector drives the serial and sharded engines, so the
// two must agree on exactly which events were poisoned — and, under
// kSkipAndCount, still produce identical ranked output. Also covers the
// bounded-backpressure path: a wedged shard must trip the stall budget and
// fail Push with a diagnosable Status instead of hanging the ingest thread.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.h"
#include "runtime/engine.h"
#include "testing/helpers.h"
#include "workload/stock.h"

namespace cepr {
namespace {

using testing::StockSchema;
using testing::Tick;

constexpr char kStockQuery[] =
    "SELECT a.symbol, a.price, MIN(b.price), c.price "
    "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
    "PARTITION BY symbol "
    "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
    "  AND c.price > a.price "
    "WITHIN 100 MILLISECONDS "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 10 EMIT ON WINDOW CLOSE";

// Stream sequence numbers to poison; both engines stamp sequences in
// arrival order, so these identify the same events in either mode.
const std::vector<uint64_t> kPoisonKeys = {7, 100, 101, 555, 1500, 3999};

struct StockStream {
  SchemaPtr schema;
  std::vector<Event> events;
};

StockStream StockEvents(size_t n = 4000) {
  StockOptions options;
  options.num_symbols = 6;
  options.v_probability = 0.03;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return {gen.schema(), gen.Take(n)};
}

struct EngineOutcome {
  std::vector<RankedResult> results;
  uint64_t quarantined = 0;
  Status first_error;  // first failing Push (OK if none failed)
};

EngineOutcome RunSerial(const StockStream& stream, FaultPolicy policy,
                        const FaultInjector* injector) {
  EngineOptions engine_options;
  engine_options.fault_policy = policy;
  engine_options.fault_injector = injector;
  Engine engine(engine_options);
  EXPECT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  EXPECT_TRUE(
      engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
  EngineOutcome outcome;
  for (const Event& e : stream.events) {
    const Status s = engine.Push(Event(e));
    if (!s.ok() && outcome.first_error.ok()) outcome.first_error = s;
  }
  engine.Finish();
  outcome.results = sink.results();
  outcome.quarantined = engine.GetQueryMetrics("q")->matcher.events_quarantined;
  return outcome;
}

EngineOutcome RunSharded(const StockStream& stream, FaultPolicy policy,
                         const FaultInjector* injector, size_t num_shards) {
  EngineOptions engine_options;
  engine_options.num_shards = num_shards;
  engine_options.fault_policy = policy;
  engine_options.fault_injector = injector;
  Engine engine(engine_options);
  EXPECT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  EXPECT_TRUE(
      engine.RegisterQuery("q", kStockQuery, QueryOptions{}, &sink).ok());
  EngineOutcome outcome;
  for (const Event& e : stream.events) {
    const Status s = engine.Push(Event(e));
    if (!s.ok() && outcome.first_error.ok()) outcome.first_error = s;
  }
  engine.Finish();
  if (outcome.first_error.ok()) outcome.first_error = engine.first_fault();
  outcome.results = sink.results();
  outcome.quarantined = engine.GetQueryMetrics("q")->matcher.events_quarantined;
  return outcome;
}

TEST(FaultInjectionTest, SerialSkipAndCountQuarantinesAndCompletes) {
  FaultInjector injector(17);
  injector.ArmKeys(fault_points::kEvalPoison, kPoisonKeys);
  const EngineOutcome outcome =
      RunSerial(StockEvents(), FaultPolicy::kSkipAndCount, &injector);
  EXPECT_TRUE(outcome.first_error.ok()) << outcome.first_error.ToString();
  EXPECT_EQ(outcome.quarantined, kPoisonKeys.size());
  EXPECT_FALSE(outcome.results.empty())
      << "a handful of poison events must not mute the stream";
}

TEST(FaultInjectionTest, SerialFailFastSurfacesFirstPoison) {
  FaultInjector injector(17);
  injector.ArmKeys(fault_points::kEvalPoison, kPoisonKeys);
  EngineOptions engine_options;
  engine_options.fault_injector = &injector;  // kFailFast is the default
  Engine engine(engine_options);
  const StockStream stream = StockEvents(100);
  ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
  ASSERT_TRUE(
      engine.RegisterQuery("q", kStockQuery, QueryOptions{}, nullptr).ok());
  Status failed;
  size_t failed_at = 0;
  for (size_t i = 0; i < stream.events.size() && failed.ok(); ++i) {
    failed = engine.Push(Event(stream.events[i]));
    failed_at = i;
  }
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed_at, 7u) << "must fail exactly at the first poisoned event";
  EXPECT_NE(failed.message().find("poison"), std::string::npos)
      << failed.ToString();
  engine.Finish();
}

class ShardedFaultEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedFaultEquivalenceTest, SkipAndCountIdenticalToSerial) {
  const StockStream events = StockEvents();

  // Two independently constructed injectors with the same seed and config:
  // determinism by construction, not shared state.
  FaultInjector serial_injector(23);
  serial_injector.ArmKeys(fault_points::kEvalPoison, kPoisonKeys);
  FaultInjector sharded_injector(23);
  sharded_injector.ArmKeys(fault_points::kEvalPoison, kPoisonKeys);

  const EngineOutcome serial =
      RunSerial(events, FaultPolicy::kSkipAndCount, &serial_injector);
  const EngineOutcome sharded = RunSharded(
      events, FaultPolicy::kSkipAndCount, &sharded_injector, GetParam());

  EXPECT_TRUE(serial.first_error.ok()) << serial.first_error.ToString();
  EXPECT_TRUE(sharded.first_error.ok()) << sharded.first_error.ToString();
  EXPECT_EQ(serial.quarantined, kPoisonKeys.size());
  EXPECT_EQ(sharded.quarantined, serial.quarantined)
      << "both engines must quarantine exactly the same events";

  ASSERT_EQ(serial.results.size(), sharded.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].window_id, sharded.results[i].window_id);
    EXPECT_EQ(serial.results[i].rank, sharded.results[i].rank);
    EXPECT_EQ(serial.results[i].match.score, sharded.results[i].match.score);
    EXPECT_EQ(serial.results[i].match.row, sharded.results[i].match.row);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedFaultEquivalenceTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(ShardedFaultTest, FailFastSurfacesPoisonAndStopsIngest) {
  FaultInjector injector(23);
  injector.ArmKeys(fault_points::kEvalPoison, kPoisonKeys);
  const EngineOutcome outcome =
      RunSharded(StockEvents(), FaultPolicy::kFailFast, &injector, 2);
  ASSERT_FALSE(outcome.first_error.ok())
      << "a poisoned shard must surface its fault";
  EXPECT_NE(outcome.first_error.message().find("poison"), std::string::npos)
      << outcome.first_error.ToString();
}

TEST(ShardedFaultTest, WedgedShardTripsStallBudgetThenRecovers) {
  FaultInjector injector(5);
  injector.ArmKeys(fault_points::kShardStall, {0});  // wedge the only shard

  EngineOptions engine_options;
  engine_options.num_shards = 1;
  engine_options.queue_capacity = 16;
  engine_options.enqueue_stall_budget_ms = 50;
  engine_options.fault_injector = &injector;
  Engine engine(engine_options);
  ASSERT_TRUE(engine.RegisterSchema(StockSchema()).ok());
  CollectSink sink;
  ASSERT_TRUE(engine
                  .RegisterQuery("q",
                                 "SELECT a.price FROM Stock "
                                 "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
                                 "WITHIN 10 SECONDS RANK BY a.price DESC "
                                 "LIMIT 5 EMIT ON WINDOW CLOSE",
                                 QueryOptions{}, &sink)
                  .ok());

  // The consumer is wedged, the ring holds 16: ingest must hit the stall
  // budget within a few dozen pushes instead of spinning forever.
  Status stalled;
  Timestamp ts = 0;
  for (int i = 0; i < 200 && stalled.ok(); ++i) {
    stalled = engine.Push(Tick(ts += 10, 10.0 + i));
  }
  ASSERT_FALSE(stalled.ok()) << "wedged shard never tripped the budget";
  EXPECT_EQ(stalled.code(), StatusCode::kUnavailable) << stalled.ToString();
  EXPECT_NE(stalled.message().find("shard 0"), std::string::npos)
      << stalled.ToString();

  // Un-wedge: the shard drains its backlog and ingest recovers.
  injector.Disarm(fault_points::kShardStall);
  for (int i = 0; i < 10; ++i) {
    const Status s = engine.Push(Tick(ts += 10, 500.0 + i));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  engine.Finish();
  EXPECT_FALSE(sink.results().empty());

  uint64_t tripped = 0;
  uint64_t stall_us = 0;
  for (const ShardStats& s : engine.shard_stats()) {
    tripped += s.stalls_tripped;
    stall_us += s.stall_us;
  }
  EXPECT_GE(tripped, 1u);
  EXPECT_GT(stall_us, 0u);
  const std::string json = engine.Snapshot().ToJson();
  EXPECT_NE(json.find("\"stalls_tripped\":"), std::string::npos);
  EXPECT_NE(json.find("\"stall_us\":"), std::string::npos);
}

TEST(ShardedFaultTest, RingFullProbeCountsEnqueueStalls) {
  FaultInjector injector(9);
  injector.ArmRate(fault_points::kShardRingFull, 1.0);

  EngineOptions engine_options;
  engine_options.num_shards = 2;
  engine_options.fault_injector = &injector;
  Engine engine(engine_options);
  ASSERT_TRUE(engine.RegisterSchema(StockSchema()).ok());
  CollectSink sink;
  ASSERT_TRUE(engine
                  .RegisterQuery("q",
                                 "SELECT a.price FROM Stock "
                                 "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
                                 "WITHIN 10 SECONDS RANK BY a.price DESC "
                                 "LIMIT 5 EMIT ON WINDOW CLOSE",
                                 QueryOptions{}, &sink)
                  .ok());
  Timestamp ts = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Push(Tick(ts += 10, 10.0 + i)).ok());
  }
  engine.Finish();
  EXPECT_GT(injector.fires(fault_points::kShardRingFull), 0u);
  uint64_t stalls = 0;
  for (const ShardStats& s : engine.shard_stats()) stalls += s.enqueue_stalls;
  EXPECT_GT(stalls, 0u) << "the ring-full probe must be visible in metrics";
}

}  // namespace
}  // namespace cepr
