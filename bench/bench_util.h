#ifndef CEPR_BENCH_BENCH_UTIL_H_
#define CEPR_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "runtime/engine.h"
#include "workload/stock.h"

namespace cepr {
namespace bench {

/// Shared benchmark entry point with two convenience flags on top of the
/// google-benchmark set: `--quick` (short min-time per benchmark, for CI
/// smoke runs) and `--json` (machine-readable output for artifacts).
/// Everything else is forwarded to the library untouched.
inline int BenchMain(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  translated.reserve(args.size() + 2);
  translated.push_back(args.empty() ? "bench" : args[0]);
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--quick") {
      translated.push_back("--benchmark_min_time=0.05");
    } else if (args[i] == "--json") {
      translated.push_back("--benchmark_format=json");
    } else {
      translated.push_back(args[i]);
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(translated.size());
  for (std::string& arg : translated) cargs.push_back(arg.data());
  int cargc = static_cast<int>(cargs.size());
  ::benchmark::Initialize(&cargc, cargs.data());
  if (::benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

/// Drop-in replacement for BENCHMARK_MAIN() that routes through BenchMain.
#define CEPR_BENCH_MAIN()                                            \
  int main(int argc, char** argv) {                                  \
    return ::cepr::bench::BenchMain(argc, argv);                     \
  }                                                                  \
  static_assert(true, "require a trailing semicolon")

/// The canonical CEPR evaluation query: dip-and-recovery over Stock,
/// ranked by relative dip depth.
inline std::string DipQuery(int limit) {
  return "SELECT a.symbol, a.price, MIN(b.price), c.price "
         "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
         "USING SKIP_TILL_NEXT_MATCH "
         "PARTITION BY symbol "
         "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
         "  AND c.price > a.price "
         "WITHIN 100 MILLISECONDS "
         "RANK BY (a.price - MIN(b.price)) / a.price DESC "
         "LIMIT " + std::to_string(limit) + " EMIT ON WINDOW CLOSE";
}

/// Pre-generates a deterministic stock stream shared across benchmark
/// repetitions (events are copied into each run).
inline const std::vector<Event>& StockStream(size_t n, double v_probability,
                                             int num_symbols = 10) {
  static std::vector<Event>* cache = nullptr;
  static size_t cache_n = 0;
  static double cache_p = -1;
  static int cache_s = 0;
  if (cache == nullptr || cache_n != n || cache_p != v_probability ||
      cache_s != num_symbols) {
    StockOptions options;
    options.num_symbols = num_symbols;
    options.v_probability = v_probability;
    StockGenerator gen(options);
    delete cache;
    cache = new std::vector<Event>(gen.Take(n));
    cache_n = n;
    cache_p = v_probability;
    cache_s = num_symbols;
  }
  return *cache;
}

/// Builds an engine with the Stock schema registered.
inline std::unique_ptr<Engine> StockEngine() {
  auto engine = std::make_unique<Engine>();
  const Status s = engine->RegisterSchema(StockGenerator::MakeSchema());
  CEPR_CHECK(s.ok()) << s.ToString();
  return engine;
}

/// Pushes a copy of `events` through `engine`, finishing at the end.
inline void Replay(Engine* engine, const std::vector<Event>& events) {
  for (const Event& e : events) {
    const Status s = engine->Push(Event(e));
    CEPR_CHECK(s.ok()) << s.ToString();
  }
  engine->Finish();
}

}  // namespace bench
}  // namespace cepr

#endif  // CEPR_BENCH_BENCH_UTIL_H_
