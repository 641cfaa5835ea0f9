// Pinned-output suite for the matcher's single hot path: copy-on-write
// bindings, the run/binding arena, the per-event predicate cache, the
// bytecode VM and the shared match DAG. Each workload's ranked output is
// pinned as a digest computed from the legacy configuration (deep-copied
// bindings, plain new/delete, per-run predicate evaluation, the AST walker)
// when that configuration still existed. The engine must reproduce every
// digest bit for bit — serial and sharded at 1, 2 and 4 shards, DAG on and
// off, under load shedding and injected fault schedules, and through
// PushAll (docs/ARCHITECTURE.md, "Run-state memory model").

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "runtime/engine.h"
#include "workload/forkheavy.h"
#include "workload/health.h"
#include "workload/stock.h"

namespace cepr {
namespace {

struct Workload {
  const char* label;
  SchemaPtr schema;
  std::vector<Event> events;
  std::string query;
  QueryOptions options;
};

// Fork-heavy: SKIP_TILL_ANY_MATCH forks a run at every Kleene extension,
// and the mixed event-only ("< 90") / correlated conjuncts exercise both
// predicate-cache paths. The tight run cap with bound-based shedding makes
// DeriveBounds run against COW bindings constantly.
Workload SkipTillAnyWorkload(uint64_t seed, size_t n = 2500) {
  StockOptions options;
  options.base.seed = seed;
  options.num_symbols = 4;
  options.v_probability = 0.05;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  Workload w{"skip-any", gen.schema(), gen.Take(n),
             "SELECT a.symbol, a.price, MIN(b.price), c.price "
             "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
             "USING SKIP_TILL_ANY_MATCH "
             "PARTITION BY symbol "
             "WHERE b[i].price < b[i-1].price AND b[i].price < 900 "
             "  AND b[1].price < a.price AND c.price > a.price "
             "WITHIN 100 MILLISECONDS "
             "RANK BY (a.price - MIN(b.price)) / a.price DESC "
             "LIMIT 10 EMIT ON WINDOW CLOSE",
             QueryOptions{}};
  w.options.matcher.max_active_runs = 64;
  w.options.matcher.shed_policy = ShedPolicy::kShedLowestScoreBound;
  return w;
}

// Negation + event-only begin predicate; default caps.
Workload NegationWorkload(uint64_t seed, size_t n = 4000) {
  StockOptions options;
  options.base.seed = seed;
  options.num_symbols = 4;
  options.v_probability = 0.04;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return Workload{"negation", gen.schema(), gen.Take(n),
                  "SELECT a.symbol, a.price, c.price "
                  "FROM Stock MATCH PATTERN SEQ(a, !n, c) "
                  "PARTITION BY symbol "
                  "WHERE a.price > 20 AND n.price > a.price "
                  "  AND c.price < a.price "
                  "WITHIN 20 MILLISECONDS "
                  "RANK BY a.price - c.price DESC "
                  "LIMIT 5 EMIT ON WINDOW CLOSE",
                  QueryOptions{}};
}

// Long Kleene chains (health vitals episodes) — deep shared prefixes.
Workload KleeneWorkload(uint64_t seed, size_t n = 4000) {
  HealthOptions options;
  options.base.seed = seed;
  options.num_patients = 6;
  options.episode_probability = 0.015;
  HealthGenerator gen(options);
  return Workload{"kleene", gen.schema(), gen.Take(n),
                  "SELECT a.patient, a.heart_rate, MAX(r.heart_rate) "
                  "FROM Vitals MATCH PATTERN SEQ(a, r+) "
                  "PARTITION BY patient "
                  "WHERE r[i].heart_rate > r[i-1].heart_rate "
                  "  AND r[1].heart_rate > a.heart_rate "
                  "WITHIN 30 SECONDS "
                  "RANK BY MAX(r.heart_rate) - a.heart_rate DESC "
                  "LIMIT 5 EMIT ON WINDOW CLOSE",
                  QueryOptions{}};
}

// Dag-eligible: trailing unbounded Kleene-plus under skip-till-any with
// event-only iteration predicates, ranked buffered emission — the shape the
// shared match DAG covers. SUM(b.price) discriminates between suffix
// subsets so lazy enumeration stays near O(k); the 12ms window bounds the
// per-run path's 2^t fork fan-out to test scale.
Workload DagEligibleWorkload(uint64_t seed, bool dag, size_t n = 3000) {
  ForkHeavyOptions options;
  options.base.seed = seed;
  options.num_streams = 2;
  options.anchor_probability = 0.15;
  options.base.interval_micros = 1000;
  ForkHeavyGenerator gen(options);
  Workload w{"fork-heavy-dag", gen.schema(), gen.Take(n),
             "SELECT a.price, SUM(b.price), COUNT(b) "
             "FROM ForkTick MATCH PATTERN SEQ(a, b+) "
             "USING SKIP_TILL_ANY_MATCH "
             "PARTITION BY sym "
             "WHERE a.anchor = 1 AND b[i].anchor = 0 "
             "WITHIN 12 MILLISECONDS "
             "RANK BY SUM(b.price) DESC "
             "LIMIT 5 EMIT ON WINDOW CLOSE",
             QueryOptions{}};
  w.options.matcher.shared_match_dag = dag;
  return w;
}

// The fault schedules: quarantined (kSkipAndCount) poison events keyed by
// stream sequence, so they fire at identical positions on every engine.
const std::vector<uint64_t> kSkipAnyPoison = {7, 100, 101, 555, 1500, 3999};
const std::vector<uint64_t> kDagPoison = {3, 250, 251, 777, 1800, 2999};

// A ranked output pinned by its result count and digest.
struct Pinned {
  size_t results;
  uint64_t digest;
};

// The legacy configuration's output, serial, one entry per workload x seed.
constexpr Pinned kSkipAny42 = {250, 0xf8f7dac98e64f0c4ull};
constexpr Pinned kSkipAny7 = {250, 0xf09e1ae68a852d2aull};
constexpr Pinned kNegation42 = {1000, 0x29ba9cb423375081ull};
constexpr Pinned kKleene42 = {5, 0x99816392f7228729ull};
constexpr Pinned kDag42 = {1179, 0x78a7b80ce11f9d61ull};
constexpr Pinned kDag7 = {1183, 0xd700bf19ebd666d7ull};
constexpr Pinned kSkipAny42Faulted = {250, 0x6c64d63903a9f182ull};
constexpr Pinned kDag42Faulted = {1179, 0x302065c6efb9755aull};

// FNV-1a over every observable field of the ranked output, in order:
// window id, rank, provisional flag, first/last timestamp, detecting-event
// sequence, the score's bit pattern and the row (match.id is matcher-local
// by design and excluded).
class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t DigestOf(const std::vector<RankedResult>& results) {
  Fnv d;
  for (const RankedResult& r : results) {
    d.Pod(r.window_id);
    d.Pod(static_cast<uint64_t>(r.rank));
    d.Pod(static_cast<uint8_t>(r.provisional));
    d.Pod(r.match.first_ts);
    d.Pod(r.match.last_ts);
    d.Pod(r.match.last_sequence);
    d.Pod(std::bit_cast<uint64_t>(r.match.score));
    d.Pod(static_cast<uint64_t>(r.match.row.size()));
    for (const Value& v : r.match.row) {
      d.Pod(static_cast<uint8_t>(v.type()));
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kBool:
          d.Pod(static_cast<uint8_t>(v.AsBool()));
          break;
        case ValueType::kInt:
          d.Pod(v.AsInt());
          break;
        case ValueType::kFloat:
          d.Pod(std::bit_cast<uint64_t>(v.AsFloat()));
          break;
        case ValueType::kString:
          d.Pod(static_cast<uint64_t>(v.AsString().size()));
          d.Bytes(v.AsString().data(), v.AsString().size());
          break;
      }
    }
  }
  return d.value();
}

void ExpectPinned(const Pinned& pinned, const std::vector<RankedResult>& actual,
                  const std::string& label) {
  EXPECT_EQ(pinned.results, actual.size()) << label;
  EXPECT_EQ(pinned.digest, DigestOf(actual))
      << label << ": ranked output differs from the pinned digest";
}

// Ingest through one Push per event, or through a single PushAll call.
enum class Ingest { kPush, kPushAll };

template <typename E>
std::vector<RankedResult> RunQuery(E& engine, const Workload& w, Ingest ingest) {
  EXPECT_TRUE(engine.RegisterSchema(w.schema).ok());
  CollectSink sink;
  const Status s = engine.RegisterQuery("q", w.query, w.options, &sink);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (ingest == Ingest::kPushAll) {
    const Status push = engine.PushAll(std::vector<Event>(w.events));
    EXPECT_TRUE(push.ok()) << push.ToString();
  } else {
    for (const Event& e : w.events) {
      const Status push = engine.Push(Event(e));
      EXPECT_TRUE(push.ok()) << push.ToString();
    }
  }
  engine.Finish();
  return sink.results();
}

// `poison` (may be empty) arms a fresh injector per run, so fire counts
// never leak across runs.
std::vector<RankedResult> RunSerial(const Workload& w,
                                    const std::vector<uint64_t>& poison = {},
                                    Ingest ingest = Ingest::kPush) {
  FaultInjector injector(1);
  EngineOptions options;
  if (!poison.empty()) {
    injector.ArmKeys(fault_points::kEvalPoison, poison);
    options.fault_policy = FaultPolicy::kSkipAndCount;
    options.fault_injector = &injector;
  }
  Engine engine(options);
  return RunQuery(engine, w, ingest);
}

std::vector<RankedResult> RunSharded(const Workload& w, size_t num_shards,
                                     const std::vector<uint64_t>& poison = {},
                                     Ingest ingest = Ingest::kPush) {
  FaultInjector injector(1);
  EngineOptions options;
  options.num_shards = num_shards;
  if (!poison.empty()) {
    injector.ArmKeys(fault_points::kEvalPoison, poison);
    options.fault_policy = FaultPolicy::kSkipAndCount;
    options.fault_injector = &injector;
  }
  Engine engine(options);
  return RunQuery(engine, w, ingest);
}

// Serial and sharded at every shard count must reproduce the pinned output.
void CheckEveryEngine(const Workload& w, const Pinned& pinned,
                      const std::string& tag) {
  ExpectPinned(pinned, RunSerial(w), tag + " serial");
  for (size_t shards : {1u, 2u, 4u}) {
    ExpectPinned(pinned, RunSharded(w, shards),
                 tag + " shards=" + std::to_string(shards));
  }
}

TEST(CowEquivalenceTest, SkipTillAnyForkHeavyWithShedding) {
  CheckEveryEngine(SkipTillAnyWorkload(42), kSkipAny42, "skip-any seed=42");
  CheckEveryEngine(SkipTillAnyWorkload(7), kSkipAny7, "skip-any seed=7");
}

TEST(CowEquivalenceTest, NegationPatterns) {
  CheckEveryEngine(NegationWorkload(42), kNegation42, "negation");
}

TEST(CowEquivalenceTest, LongKleeneChains) {
  CheckEveryEngine(KleeneWorkload(42), kKleene42, "kleene");
}

// The shared match DAG with lazy enumeration is a pure representation
// change: ranked output must equal the per-run path's pinned digest on the
// dag-eligible workload — dag on and off, serial and sharded at every shard
// count.
TEST(CowEquivalenceTest, SharedMatchDagMatchesPerRunPath) {
  for (bool dag : {false, true}) {
    const std::string tag = std::string("dag=") + (dag ? "on" : "off");
    CheckEveryEngine(DagEligibleWorkload(42, dag), kDag42, tag + " seed=42");
    CheckEveryEngine(DagEligibleWorkload(7, dag), kDag7, tag + " seed=7");
  }
}

// Same invariant under the injected-fault schedule: quarantines must land
// on the same events and the surviving ranked output must stay identical
// whether the trailing fan-out lives in runs or in DAG groups.
TEST(CowEquivalenceTest, SharedMatchDagIdenticalUnderInjectedFaults) {
  for (bool dag : {false, true}) {
    const Workload w = DagEligibleWorkload(42, dag);
    const std::string tag = std::string("dag=") + (dag ? "on" : "off");
    ExpectPinned(kDag42Faulted, RunSerial(w, kDagPoison), "faulted serial " + tag);
    ExpectPinned(kDag42Faulted, RunSharded(w, 2, kDagPoison),
                 "faulted shards=2 " + tag);
  }
}

TEST(CowEquivalenceTest, IdenticalUnderInjectedFaults) {
  // The same poisoned events must be quarantined and the surviving output
  // must stay identical, serial and sharded.
  const Workload w = SkipTillAnyWorkload(42);
  ExpectPinned(kSkipAny42Faulted, RunSerial(w, kSkipAnyPoison), "faulted serial");
  ExpectPinned(kSkipAny42Faulted, RunSharded(w, 2, kSkipAnyPoison),
               "faulted shards=2");
}

// PushAll is a per-event Push loop: one call over the whole stream must
// reproduce the pinned output on both engines, per-run and dag paths.
TEST(CowEquivalenceTest, PushAllReproducesPinnedDigests) {
  const Workload skip_any = SkipTillAnyWorkload(42);
  const Workload dag = DagEligibleWorkload(42, true);
  ExpectPinned(kSkipAny42, RunSerial(skip_any, {}, Ingest::kPushAll),
               "skip-any serial PushAll");
  ExpectPinned(kDag42, RunSerial(dag, {}, Ingest::kPushAll), "dag serial PushAll");
  for (size_t shards : {1u, 2u, 4u}) {
    const std::string tag = " shards=" + std::to_string(shards) + " PushAll";
    ExpectPinned(kSkipAny42, RunSharded(skip_any, shards, {}, Ingest::kPushAll),
                 "skip-any" + tag);
    ExpectPinned(kDag42, RunSharded(dag, shards, {}, Ingest::kPushAll),
                 "dag" + tag);
  }
}

// The hot-path counters are deterministic per partition, so the sharded
// engine's totals must equal the serial engine's for any shard count — the
// same invariant the other matcher counters already obey.
TEST(CowEquivalenceTest, HotPathCountersMatchSerialTotals) {
  const Workload w = SkipTillAnyWorkload(42);

  const auto run = [&w](auto& engine) -> MatcherStats {
    RunQuery(engine, w, Ingest::kPush);
    return engine.GetQueryMetrics("q")->matcher;
  };

  Engine serial;
  const MatcherStats serial_stats = run(serial);
  EXPECT_GT(serial_stats.runs_cloned, 0u);
  EXPECT_GT(serial_stats.binding_nodes_allocated, 0u);
  EXPECT_GT(serial_stats.predcache_hits, 0u);
  EXPECT_GT(serial_stats.predcache_misses, 0u);

  for (size_t shards : {1u, 2u, 4u}) {
    EngineOptions options;
    options.num_shards = shards;
    Engine sharded(options);
    const MatcherStats sharded_stats = run(sharded);
    EXPECT_EQ(serial_stats.runs_cloned, sharded_stats.runs_cloned)
        << "shards=" << shards;
    EXPECT_EQ(serial_stats.binding_nodes_allocated,
              sharded_stats.binding_nodes_allocated)
        << "shards=" << shards;
    EXPECT_EQ(serial_stats.predcache_hits, sharded_stats.predcache_hits)
        << "shards=" << shards;
    EXPECT_EQ(serial_stats.predcache_misses, sharded_stats.predcache_misses)
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace cepr
