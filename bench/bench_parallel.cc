// E11 — Shard-backend scaling: per-partition worker threads vs. the
// inline backend.
//
// The E1 workload (stock stream, ranked dip query partitioned by symbol,
// EMIT ON WINDOW CLOSE) replayed through the inline backend (arg 0) and
// through the shard backend at 1/2/4/8 shards. The headline series:
// events/s per shard count. Output equivalence between the backends is
// asserted by tests/integration/sharded_equivalence_test.cc, so this
// binary only measures.
//
// Scaling expectation: near-linear up to the machine's core count for
// partition-rich streams (10 symbols here), then flat; a single-core host
// shows queue overhead instead of speedup (see docs/BENCHMARKS.md §E11).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench_util.h"

namespace cepr {
namespace bench {
namespace {

constexpr size_t kEvents = 200000;
constexpr double kVProbability = 0.01;

void BM_ParallelScaling(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const auto& events = StockStream(kEvents, kVProbability);
  const std::string query = DipQuery(/*limit=*/10);

  uint64_t results = 0;
  uint64_t stalls = 0;
  uint64_t high_water = 0;
  for (auto _ : state) {
    if (num_shards == 0) {
      // Serial baseline.
      auto engine = StockEngine();
      NullSink sink;
      QueryOptions options;
      options.ranker = RankerPolicy::kPruned;
      const Status s = engine->RegisterQuery("q", query, options, &sink);
      CEPR_CHECK(s.ok()) << s.ToString();
      Replay(engine.get(), events);
      results = engine->GetQuery("q").value()->metrics().results;
    } else {
      EngineOptions engine_options;
      engine_options.num_shards = num_shards;
      Engine engine(engine_options);
      Status s = engine.RegisterSchema(StockGenerator::MakeSchema());
      CEPR_CHECK(s.ok()) << s.ToString();
      NullSink sink;
      QueryOptions options;
      options.ranker = RankerPolicy::kPruned;
      s = engine.RegisterQuery("q", query, options, &sink);
      CEPR_CHECK(s.ok()) << s.ToString();
      for (const Event& e : events) {
        s = engine.Push(Event(e));
        CEPR_CHECK(s.ok()) << s.ToString();
      }
      engine.Finish();
      results = engine.GetQueryMetrics("q").value().results;
      stalls = 0;
      high_water = 0;
      for (const ShardStats& shard : engine.shard_stats()) {
        stalls += shard.enqueue_stalls;
        high_water = std::max<uint64_t>(high_water, shard.queue_high_water);
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(kEvents) * state.iterations());
  state.counters["results"] = static_cast<double>(results);
  state.counters["enqueue_stalls"] = static_cast<double>(stalls);
  state.counters["queue_high_water"] = static_cast<double>(high_water);
}

BENCHMARK(BM_ParallelScaling)
    ->Arg(0)  // serial Engine baseline
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("shards(0=serial)")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Shard-count sweep on a partition-rich stream (64 symbols): how routing
// spread affects balance when partitions outnumber shards comfortably.
void BM_ParallelManyPartitions(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const auto& events = StockStream(kEvents, kVProbability, /*num_symbols=*/64);
  const std::string query = DipQuery(/*limit=*/10);

  for (auto _ : state) {
    EngineOptions engine_options;
    engine_options.num_shards = num_shards;
    Engine engine(engine_options);
    Status s = engine.RegisterSchema(StockGenerator::MakeSchema());
    CEPR_CHECK(s.ok()) << s.ToString();
    NullSink sink;
    QueryOptions options;
    options.ranker = RankerPolicy::kPruned;
    s = engine.RegisterQuery("q", query, options, &sink);
    CEPR_CHECK(s.ok()) << s.ToString();
    for (const Event& e : events) {
      s = engine.Push(Event(e));
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    engine.Finish();
    // Imbalance: max shard events / mean shard events (1.0 = perfect).
    uint64_t total = 0;
    uint64_t worst = 0;
    for (const ShardStats& shard : engine.shard_stats()) {
      total += shard.events;
      worst = std::max(worst, shard.events);
    }
    if (total > 0) {
      state.counters["imbalance"] =
          static_cast<double>(worst) * static_cast<double>(num_shards) /
          static_cast<double>(total);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(kEvents) * state.iterations());
}

BENCHMARK(BM_ParallelManyPartitions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("shards")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// E12 — Monitoring overhead: the E11 4-shard run with a monitor thread
// polling Snapshot() at the given frequency (poll_hz; 0 = no monitor —
// the baseline the others are read against). Quantifies the cost of the
// live-metrics contract: relaxed counters are free, so any delta comes
// from the per-shard histogram mutexes the snapshot path takes.
void BM_ParallelSnapshotOverhead(benchmark::State& state) {
  const int poll_hz = static_cast<int>(state.range(0));
  const auto& events = StockStream(kEvents, kVProbability);
  const std::string query = DipQuery(/*limit=*/10);

  uint64_t polls = 0;
  for (auto _ : state) {
    EngineOptions engine_options;
    engine_options.num_shards = 4;
    Engine engine(engine_options);
    Status s = engine.RegisterSchema(StockGenerator::MakeSchema());
    CEPR_CHECK(s.ok()) << s.ToString();
    NullSink sink;
    QueryOptions options;
    options.ranker = RankerPolicy::kPruned;
    s = engine.RegisterQuery("q", query, options, &sink);
    CEPR_CHECK(s.ok()) << s.ToString();

    std::atomic<bool> done{false};
    std::thread monitor;
    if (poll_hz > 0) {
      monitor = std::thread([&] {
        const auto period = std::chrono::microseconds(1000000 / poll_hz);
        while (!done.load(std::memory_order_acquire)) {
          benchmark::DoNotOptimize(engine.Snapshot());
          ++polls;
          std::this_thread::sleep_for(period);
        }
      });
    }
    for (const Event& e : events) {
      s = engine.Push(Event(e));
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    engine.Finish();
    done.store(true, std::memory_order_release);
    if (monitor.joinable()) monitor.join();
  }
  state.SetItemsProcessed(static_cast<int64_t>(kEvents) * state.iterations());
  state.counters["polls"] = static_cast<double>(polls);
}

BENCHMARK(BM_ParallelSnapshotOverhead)
    ->Arg(0)  // no monitor thread
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->ArgName("poll_hz")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace bench
}  // namespace cepr

CEPR_BENCH_MAIN();
