// Concurrency suite for the metrics snapshot subsystem: a monitor thread
// must be able to poll Engine::Snapshot() (and the narrower
// introspection calls) while the ingest and shard threads are running, with
// no data races (run under -DCEPR_SANITIZE=thread) and with each counter
// exact-at-some-instant. After Finish() the aggregated counters must equal
// the serial engine's on the same workload.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.h"
#include "workload/stock.h"

namespace cepr {
namespace {

struct Workload {
  SchemaPtr schema;
  std::vector<Event> events;
  std::string query;
};

Workload StockWorkload(size_t n) {
  StockOptions options;
  options.num_symbols = 6;
  options.v_probability = 0.03;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return Workload{
      gen.schema(), gen.Take(n),
      "SELECT a.symbol, a.price, MIN(b.price), c.price "
      "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
      "PARTITION BY symbol "
      "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
      "  AND c.price > a.price "
      "WITHIN 100 MILLISECONDS "
      "RANK BY (a.price - MIN(b.price)) / a.price DESC "
      "LIMIT 10 EMIT ON WINDOW CLOSE"};
}

// Regression: a kFinish message carries a default-initialized query index,
// and the shard cell used to be bound before the message-kind switch —
// Push + Finish with zero registered queries indexed an empty cell vector.
TEST(ShardedMetricsRaceTest, ZeroQueryPushFinishDoesNotCrash) {
  EngineOptions options;
  options.num_shards = 4;
  Engine engine(options);
  StockGenerator gen(StockOptions{});
  ASSERT_TRUE(engine.RegisterSchema(gen.schema()).ok());
  ASSERT_TRUE(engine.Push(gen.Next()).ok());  // starts the workers
  engine.Finish();
  EXPECT_EQ(engine.events_ingested(), 1u);
  const MetricsSnapshot snap = engine.Snapshot();
  EXPECT_EQ(snap.events_ingested, 1u);
  EXPECT_TRUE(snap.queries.empty());
}

// Snapshots must also be safe before the workers exist (RegisterQuery done,
// no Push yet) and after Finish.
TEST(ShardedMetricsRaceTest, SnapshotBeforeStartAndAfterFinish) {
  const Workload w = StockWorkload(200);
  EngineOptions options;
  options.num_shards = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  ASSERT_TRUE(engine.RegisterQuery("q", w.query, QueryOptions{}, &sink).ok());

  MetricsSnapshot before = engine.Snapshot();
  EXPECT_EQ(before.events_ingested, 0u);
  ASSERT_EQ(before.queries.size(), 1u);
  EXPECT_EQ(before.queries[0].metrics.events, 0u);
  EXPECT_TRUE(before.shards.empty());  // workers not started yet

  for (const Event& e : w.events) ASSERT_TRUE(engine.Push(Event(e)).ok());
  engine.Finish();

  MetricsSnapshot after = engine.Snapshot();
  EXPECT_EQ(after.events_ingested, w.events.size());
  EXPECT_EQ(after.shards.size(), 2u);
  EXPECT_FALSE(after.ToJson().empty());
}

// The tentpole proof: a monitor thread hammers every introspection entry
// point while the ingest thread pushes 100k events through 4 shards. Under
// TSan this is the data-race check; in a plain build it checks the
// monotonicity/sanity invariants the snapshot API documents.
TEST(ShardedMetricsRaceTest, MonitorThreadPollsDuringIngest) {
  const Workload w = StockWorkload(100000);
  EngineOptions options;
  options.num_shards = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  ASSERT_TRUE(engine.RegisterQuery("q", w.query, QueryOptions{}, &sink).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> polls{0};
  std::thread monitor([&] {
    uint64_t last_ingested = 0;
    uint64_t last_events = 0;
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = engine.Snapshot();
      // Ingest counter is monotone across polls and bounded by the stream.
      EXPECT_GE(snap.events_ingested, last_ingested);
      EXPECT_LE(snap.events_ingested, w.events.size());
      last_ingested = snap.events_ingested;

      ASSERT_EQ(snap.queries.size(), 1u);
      const QueryMetrics& m = snap.queries[0].metrics;
      EXPECT_GE(m.events, last_events);
      EXPECT_LE(m.events, w.events.size());
      last_events = m.events;
      // Histograms merge under the cell mutex; counts never exceed the
      // events routed so far plus in-flight messages.
      EXPECT_LE(m.event_processing_ns.count(), w.events.size());

      uint64_t shard_events = 0;
      for (const ShardStats& s : snap.shards) shard_events += s.events;
      EXPECT_LE(shard_events, w.events.size());

      // Exercise the narrower entry points too (distinct lock paths).
      (void)engine.shard_stats();
      (void)engine.merge_stats();
      const auto qm = engine.GetQueryMetrics("q");
      ASSERT_TRUE(qm.ok());
      (void)snap.ToJson();
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (const Event& e : w.events) ASSERT_TRUE(engine.Push(Event(e)).ok());
  engine.Finish();
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_GT(polls.load(), 0u) << "monitor thread never ran; weak test";
  const MetricsSnapshot final_snap = engine.Snapshot();
  EXPECT_EQ(final_snap.events_ingested, w.events.size());
  EXPECT_EQ(final_snap.queries[0].metrics.results, sink.results().size());
}

// After Finish() the sharded aggregation must equal the serial engine's
// QueryMetrics on the same workload. RankerPolicy::kHeap keeps the matcher
// counters exactly comparable (kPruned thresholds are shard-local, so its
// prune/run counters legitimately diverge from the serial global bar).
TEST(ShardedMetricsRaceTest, PostFinishSnapshotMatchesSerialEngine) {
  const Workload w = StockWorkload(6000);
  QueryOptions qopts;
  qopts.ranker = RankerPolicy::kHeap;

  Engine serial;
  ASSERT_TRUE(serial.RegisterSchema(w.schema).ok());
  CollectSink serial_sink;
  ASSERT_TRUE(serial.RegisterQuery("q", w.query, qopts, &serial_sink).ok());
  for (const Event& e : w.events) ASSERT_TRUE(serial.Push(Event(e)).ok());
  serial.Finish();
  const QueryMetrics sm = serial.GetQueryMetrics("q").value();

  EngineOptions options;
  options.num_shards = 4;
  Engine sharded(options);
  ASSERT_TRUE(sharded.RegisterSchema(w.schema).ok());
  CollectSink sharded_sink;
  ASSERT_TRUE(sharded.RegisterQuery("q", w.query, qopts, &sharded_sink).ok());
  for (const Event& e : w.events) ASSERT_TRUE(sharded.Push(Event(e)).ok());
  sharded.Finish();
  const QueryMetrics pm = sharded.GetQueryMetrics("q").value();

  EXPECT_FALSE(serial_sink.results().empty()) << "no results; weak test";
  EXPECT_EQ(pm.events, sm.events);
  EXPECT_EQ(pm.matches, sm.matches);
  EXPECT_EQ(pm.results, sm.results);
  EXPECT_EQ(pm.prune_checks, sm.prune_checks);
  EXPECT_EQ(pm.prunes, sm.prunes);

  // Matcher counters are partition-local state, so sharding is invisible
  // to every running count. Running maxima are the exception: per-shard
  // peaks happen at different instants, so their sum is only an upper
  // bound. Walking the generated field list covers every counter, later
  // additions included.
  for (const auto& f : MatcherStats::Fields()) {
    if (f.kind == CounterKind::kMax) {
      EXPECT_GE(pm.matcher.*f.value, sm.matcher.*f.value) << f.name;
    } else {
      EXPECT_EQ(pm.matcher.*f.value, sm.matcher.*f.value) << f.name;
    }
  }

  // Every event is timed exactly once, on whichever engine ran it.
  EXPECT_EQ(pm.event_processing_ns.count(), sm.events);
  EXPECT_EQ(sm.event_processing_ns.count(), sm.events);
  // Shard-local emission happens before the merge cut, so the sharded
  // delay histogram sees at least every delivered result.
  EXPECT_GE(pm.emission_delay_us.count(), pm.results);
  EXPECT_EQ(sm.emission_delay_us.count(), sm.results);

  // And the engine-wide snapshot agrees with the per-query view.
  const MetricsSnapshot snap = sharded.Snapshot();
  EXPECT_EQ(snap.events_ingested, w.events.size());
  ASSERT_EQ(snap.queries.size(), 1u);
  EXPECT_EQ(snap.queries[0].name, "q");
  EXPECT_EQ(snap.queries[0].metrics.matches, pm.matches);
  uint64_t shard_events = 0;
  for (const ShardStats& s : snap.shards) shard_events += s.events;
  EXPECT_EQ(shard_events, w.events.size());
  EXPECT_EQ(snap.merge.results_emitted, sharded_sink.results().size());
}

}  // namespace
}  // namespace cepr
