// Disorder property suite for the watermark-driven reorder buffer: a
// stream shuffled within the lateness bound must produce ranked output
// bit-identical (scores, ranks, tie-order, windows) to the in-order
// stream, on the serial engine and on the sharded engine at every shard
// count — including under a deterministic injected fault schedule, whose
// keys are stream sequence numbers stamped at buffer release. Late events
// beyond the bound follow the configured LatePolicy without perturbing the
// on-time results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "runtime/engine.h"
#include "workload/stock.h"

namespace cepr {
namespace {

constexpr char kStockQuery[] =
    "SELECT a.symbol, a.price, MIN(b.price), c.price "
    "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
    "PARTITION BY symbol "
    "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
    "  AND c.price > a.price "
    "WITHIN 100 MILLISECONDS "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 10 EMIT ON WINDOW CLOSE";

// 20 ms of tolerated disorder over a 1 ms event interval: ~20-event blocks.
constexpr Timestamp kLateness = 20000;

struct StockStream {
  SchemaPtr schema;
  std::vector<Event> events;
};

StockStream InOrderStock(size_t n = 6000) {
  StockOptions options;
  options.num_symbols = 6;
  options.v_probability = 0.03;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return {gen.schema(), gen.Take(n)};
}

// Shuffles within consecutive event-time blocks of span <= bound. Every
// event's displacement then stays within the bound (its block's span), so
// a reorder buffer with that bound never sees a late event.
std::vector<Event> BlockShuffle(const std::vector<Event>& events,
                                Timestamp bound, uint64_t seed) {
  std::vector<Event> out;
  out.reserve(events.size());
  for (const Event& e : events) out.push_back(Event(e));
  Random rng(seed);
  for (size_t lo = 0; lo < out.size();) {
    size_t hi = lo;
    while (hi + 1 < out.size() &&
           out[hi + 1].timestamp() - out[lo].timestamp() <= bound) {
      ++hi;
    }
    for (size_t i = hi; i > lo; --i) {
      const size_t j = lo + rng.Uniform(static_cast<uint64_t>(i - lo + 1));
      std::swap(out[i], out[j]);
    }
    lo = hi + 1;
  }
  return out;
}

std::vector<RankedResult> RunSerial(const StockStream& stream,
                                    const std::vector<Event>& arrivals,
                                    Timestamp lateness,
                                    const FaultInjector* injector = nullptr) {
  EngineOptions options;
  options.max_lateness_micros = lateness;
  if (injector != nullptr) {
    options.fault_policy = FaultPolicy::kSkipAndCount;
    options.fault_injector = injector;
  }
  Engine engine(options);
  EXPECT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  QueryOptions query_options;
  query_options.ranker = RankerPolicy::kPruned;
  EXPECT_TRUE(
      engine.RegisterQuery("q", kStockQuery, query_options, &sink).ok());
  for (const Event& e : arrivals) {
    const Status s = engine.Push(Event(e));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  engine.Finish();
  return sink.results();
}

std::vector<RankedResult> RunSharded(const StockStream& stream,
                                     const std::vector<Event>& arrivals,
                                     Timestamp lateness, size_t num_shards,
                                     const FaultInjector* injector = nullptr) {
  EngineOptions options;
  options.num_shards = num_shards;
  options.max_lateness_micros = lateness;
  if (injector != nullptr) {
    options.fault_policy = FaultPolicy::kSkipAndCount;
    options.fault_injector = injector;
  }
  Engine engine(options);
  EXPECT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  QueryOptions query_options;
  query_options.ranker = RankerPolicy::kPruned;
  EXPECT_TRUE(
      engine.RegisterQuery("q", kStockQuery, query_options, &sink).ok());
  for (const Event& e : arrivals) {
    const Status s = engine.Push(Event(e));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  engine.Finish();
  return sink.results();
}

void ExpectIdentical(const std::vector<RankedResult>& expected,
                     const std::vector<RankedResult>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].window_id, actual[i].window_id) << label << " @" << i;
    EXPECT_EQ(expected[i].rank, actual[i].rank) << label << " @" << i;
    EXPECT_EQ(expected[i].provisional, actual[i].provisional)
        << label << " @" << i;
    EXPECT_EQ(expected[i].match.first_ts, actual[i].match.first_ts)
        << label << " @" << i;
    EXPECT_EQ(expected[i].match.last_ts, actual[i].match.last_ts)
        << label << " @" << i;
    EXPECT_EQ(expected[i].match.last_sequence, actual[i].match.last_sequence)
        << label << " @" << i;
    EXPECT_DOUBLE_EQ(expected[i].match.score, actual[i].match.score)
        << label << " @" << i;
    EXPECT_EQ(expected[i].match.row, actual[i].match.row) << label << " @" << i;
  }
}

class DisorderEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DisorderEquivalenceTest, ShuffledShardedIdenticalToInOrderSerial) {
  const StockStream stream = InOrderStock();
  const std::vector<Event> shuffled =
      BlockShuffle(stream.events, kLateness, /*seed=*/42);
  const auto baseline = RunSerial(stream, stream.events, /*lateness=*/0);
  EXPECT_FALSE(baseline.empty()) << "workload produced no results; weak test";
  ExpectIdentical(
      baseline, RunSharded(stream, shuffled, kLateness, GetParam()),
      "disorder sharded=" + std::to_string(GetParam()));
}

TEST_P(DisorderEquivalenceTest, FaultScheduleSurvivesDisorder) {
  // Poison keys are stream sequence numbers; sequences are stamped at
  // buffer release, so the shuffled-then-reordered stream poisons exactly
  // the events the in-order baseline does and output stays identical.
  const std::vector<uint64_t> kPoisonKeys = {7, 100, 101, 555, 1500, 3999};
  FaultInjector baseline_injector(17);
  baseline_injector.ArmKeys(fault_points::kEvalPoison, kPoisonKeys);
  FaultInjector disorder_injector(17);
  disorder_injector.ArmKeys(fault_points::kEvalPoison, kPoisonKeys);

  const StockStream stream = InOrderStock(4000);
  const std::vector<Event> shuffled =
      BlockShuffle(stream.events, kLateness, /*seed=*/7);
  const auto baseline =
      RunSerial(stream, stream.events, /*lateness=*/0, &baseline_injector);
  EXPECT_FALSE(baseline.empty()) << "workload produced no results; weak test";
  ExpectIdentical(baseline,
                  RunSharded(stream, shuffled, kLateness, GetParam(),
                             &disorder_injector),
                  "disorder+faults sharded=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, DisorderEquivalenceTest,
                         ::testing::Values(1, 2, 4));

TEST(DisorderTest, ShuffledSerialIdenticalToInOrderSerial) {
  const StockStream stream = InOrderStock();
  const std::vector<Event> shuffled =
      BlockShuffle(stream.events, kLateness, /*seed=*/1234);
  const auto baseline = RunSerial(stream, stream.events, /*lateness=*/0);
  EXPECT_FALSE(baseline.empty()) << "workload produced no results; weak test";
  ExpectIdentical(baseline, RunSerial(stream, shuffled, kLateness),
                  "disorder serial");
  // The buffer actually did work: events were admitted below high_ts.
  Engine probe(EngineOptions{.max_lateness_micros = kLateness});
  ASSERT_TRUE(probe.RegisterSchema(stream.schema).ok());
  for (const Event& e : shuffled) ASSERT_TRUE(probe.Push(Event(e)).ok());
  probe.Finish();
  const ReorderStats stats = probe.Snapshot().reorder;
  EXPECT_GT(stats.events_reordered, 0u);
  EXPECT_GT(stats.reorder_buffer_peak, 1u);
  EXPECT_EQ(stats.events_late_dropped, 0u);
  EXPECT_EQ(stats.events_clamped, 0u);
}

TEST(DisorderTest, ZeroLatenessPreservesStrictBehavior) {
  const StockStream stream = InOrderStock(200);
  const std::vector<Event> shuffled =
      BlockShuffle(stream.events, kLateness, /*seed=*/9);
  Engine engine;  // default: lateness 0, kReject
  ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
  size_t rejections = 0;
  Status first_rejection;
  for (const Event& e : shuffled) {
    const Status s = engine.Push(Event(e));
    if (!s.ok()) {
      if (rejections == 0) first_rejection = s;
      ++rejections;
    }
  }
  EXPECT_GT(rejections, 0u) << "shuffle produced no regression; weak test";
  EXPECT_EQ(first_rejection.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(first_rejection.message().find("out-of-order"), std::string::npos);
  EXPECT_EQ(engine.events_ingested() + rejections, shuffled.size());
}

TEST(DisorderTest, DropAndCountDiscardsOnlyTheStragglers) {
  // Interleave copies of early events (far older than the bound) into the
  // shuffled stream: under kDropAndCount they are discarded and counted,
  // and the ranked output equals the baseline over the on-time events.
  const StockStream stream = InOrderStock(3000);
  std::vector<Event> arrivals = BlockShuffle(stream.events, kLateness, 77);
  size_t stragglers = 0;
  for (size_t pos = 500; pos < arrivals.size(); pos += 500) {
    arrivals.insert(arrivals.begin() + static_cast<std::ptrdiff_t>(pos),
                    Event(stream.events[pos / 500]));
    ++stragglers;
  }
  ASSERT_GT(stragglers, 0u);

  EngineOptions options;
  options.max_lateness_micros = kLateness;
  options.late_policy = LatePolicy::kDropAndCount;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
  CollectSink sink;
  QueryOptions query_options;
  query_options.ranker = RankerPolicy::kPruned;
  ASSERT_TRUE(
      engine.RegisterQuery("q", kStockQuery, query_options, &sink).ok());
  for (const Event& e : arrivals) {
    const Status s = engine.Push(Event(e));
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  engine.Finish();

  const ReorderStats stats = engine.Snapshot().reorder;
  EXPECT_EQ(stats.events_late_dropped, stragglers);
  EXPECT_EQ(stats.events_clamped, 0u);
  EXPECT_EQ(engine.events_ingested(), stream.events.size());
  const auto baseline = RunSerial(stream, stream.events, /*lateness=*/0);
  EXPECT_FALSE(baseline.empty()) << "workload produced no results; weak test";
  ExpectIdentical(baseline, sink.results(), "drop-and-count");
}

TEST(DisorderTest, RejectSurfacesLateEventAndStreamContinues) {
  const StockStream stream = InOrderStock(100);
  EngineOptions options;
  options.max_lateness_micros = kLateness;  // late_policy stays kReject
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(stream.schema).ok());
  for (size_t i = 50; i < 100; ++i) {
    ASSERT_TRUE(engine.Push(Event(stream.events[i])).ok());
  }
  // events[0] is ~50 ms older than high_ts: beyond the 20 ms bound.
  const Status late = engine.Push(Event(stream.events[0]));
  EXPECT_EQ(late.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(late.message().find("lateness bound"), std::string::npos);
  // The stream is not poisoned: in-order ingest continues.
  Event next(stream.events[99]);
  next.set_timestamp(next.timestamp() + 1000);
  EXPECT_TRUE(engine.Push(std::move(next)).ok());
  engine.Finish();
  EXPECT_EQ(engine.events_ingested(), 51u);
  EXPECT_EQ(engine.Snapshot().reorder.events_late_dropped, 0u);
}

}  // namespace
}  // namespace cepr
