// E16 — shared multi-query evaluation.
//
// A fleet of queries that differ only in one selection constant
// (`a.volume = V`). With shared evaluation the engine interns one NFA
// template for the whole fleet and the predicate index dispatches each
// event to the handful of queries whose entry predicate can match, so
// per-event cost stays near-flat as the fleet grows; unshared, every event
// visits every query. Compare `shared=1` vs `shared=0` rows at equal
// fleet sizes (docs/BENCHMARKS.md, EXPERIMENTS.md E16).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace cepr {
namespace bench {
namespace {

constexpr size_t kEvents = 50000;

// One fleet member: anchor on an exact volume so the predicate index can
// dispatch (volume is INT RANGE [1, 10000] in the Stock schema — each
// query is entered by ~1/10000 of the feed), then a short ranked
// rebound pattern so candidate visits do real matcher work.
std::string FleetQuery(int volume) {
  return "SELECT a.symbol, a.price, b.price FROM Stock "
         "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
         "WHERE a.volume = " + std::to_string(volume) +
         "  AND b.price > a.price "
         "WITHIN 10 MILLISECONDS "
         "RANK BY b.price - a.price DESC "
         "LIMIT 5 EMIT ON WINDOW CLOSE";
}

void BM_QueryFleet(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  const bool shared = state.range(1) != 0;
  // Unshared 10k-query runs cost events*queries matcher visits; trim the
  // replay so the slowest cell stays benchmarkable. Throughput counters
  // normalize by the actual event count.
  const size_t events_n = num_queries >= 10000 ? 5000 : kEvents;
  const auto& events = StockStream(events_n, 0.01);
  for (auto _ : state) {
    state.PauseTiming();  // fleet registration (compile) is setup, not ingest
    EngineOptions options;
    options.shared_eval = shared;
    auto engine = std::make_unique<Engine>(options);
    Status s = engine->RegisterSchema(StockGenerator::MakeSchema());
    CEPR_CHECK(s.ok()) << s.ToString();
    std::vector<std::unique_ptr<NullSink>> sinks;
    sinks.reserve(num_queries);
    for (int i = 0; i < num_queries; ++i) {
      sinks.push_back(std::make_unique<NullSink>());
      s = engine->RegisterQuery("q" + std::to_string(i),
                                FleetQuery(i % 10000 + 1), QueryOptions{},
                                sinks.back().get());
      CEPR_CHECK(s.ok()) << s.ToString();
    }
    state.ResumeTiming();
    Replay(engine.get(), events);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events_n) * state.iterations());
  state.counters["ns_per_event"] = benchmark::Counter(
      static_cast<double>(events_n) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_QueryFleet)
    ->ArgsProduct({{10, 100, 1000, 10000}, {0, 1}})
    ->ArgNames({"queries", "shared"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace cepr

CEPR_BENCH_MAIN();
