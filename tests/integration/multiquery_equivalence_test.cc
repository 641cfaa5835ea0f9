// Property suite for the shared multi-query evaluation layer
// (docs/MULTIQUERY.md): template interning, predicate-index dispatch and
// shared window tracking are pure routing optimizations, so every query in
// a fleet must produce byte-identical ranked output with shared evaluation
// on or off — serial and sharded at every shard count, under an injected
// fault schedule (which degrades the shared path), and under bounded
// out-of-order arrival. Plus the hot add/remove template-refcount
// regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/fault.h"
#include "runtime/engine.h"
#include "workload/stock.h"

namespace cepr {
namespace {

std::vector<Event> StockEvents(uint64_t seed, size_t n) {
  StockOptions options;
  options.base.seed = seed;
  options.num_symbols = 4;
  options.v_probability = 0.05;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  return gen.Take(n);
}

// A fleet mixing every predicate-index class: equality-anchored rebounds
// (some on volumes that rarely occur), range-anchored rebounds, an
// uncorrelated residual anchor, and correlated dip queries the index can
// never rule out. The dip pair and the rebound family each share one NFA
// template (constants differ only).
std::vector<std::pair<std::string, std::string>> Fleet() {
  std::vector<std::pair<std::string, std::string>> fleet;
  const auto rebound = [](const std::string& anchor) {
    return "SELECT a.symbol, a.price, b.price FROM Stock "
           "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
           "WHERE " + anchor + " AND b.price > a.price "
           "WITHIN 10 MILLISECONDS "
           "RANK BY b.price - a.price DESC "
           "LIMIT 5 EMIT ON WINDOW CLOSE";
  };
  const auto dip = [](int threshold) {
    return "SELECT a.symbol, a.price, MIN(b.price), c.price "
           "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
           "PARTITION BY symbol "
           "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
           "  AND c.price > a.price AND a.price > " +
           std::to_string(threshold) +
           " WITHIN 100 MILLISECONDS "
           "RANK BY (a.price - MIN(b.price)) / a.price DESC "
           "LIMIT 5 EMIT ON WINDOW CLOSE";
  };
  fleet.emplace_back("eq_hit", rebound("a.volume = 500"));
  fleet.emplace_back("eq_miss", rebound("a.volume = 9999"));
  fleet.emplace_back("range_low", rebound("a.price > 20"));
  fleet.emplace_back("range_high", rebound("a.price >= 600"));
  fleet.emplace_back("range_upper", rebound("a.price < 40"));
  fleet.emplace_back("residual", rebound("a.price * 2 > a.volume"));
  fleet.emplace_back("dip_10", dip(10));
  fleet.emplace_back("dip_200", dip(200));
  return fleet;
}

using FleetResults = std::map<std::string, std::vector<RankedResult>>;

FleetResults RunSerial(const std::vector<Event>& events, bool shared,
                       Timestamp max_lateness = 0,
                       const FaultInjector* injector = nullptr) {
  EngineOptions options;
  options.shared_eval = shared;
  options.max_lateness_micros = max_lateness;
  if (injector != nullptr) {
    options.fault_policy = FaultPolicy::kSkipAndCount;
    options.fault_injector = injector;
  }
  Engine engine(options);
  EXPECT_TRUE(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  std::map<std::string, CollectSink> sinks;
  for (const auto& [name, query] : Fleet()) {
    const Status s =
        engine.RegisterQuery(name, query, QueryOptions{}, &sinks[name]);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
  }
  for (const Event& e : events) {
    const Status push = engine.Push(Event(e));
    EXPECT_TRUE(push.ok()) << push.ToString();
  }
  engine.Finish();
  EXPECT_EQ(engine.shared_eval_active(), shared && injector == nullptr)
      << "shared=" << shared;
  FleetResults out;
  for (auto& [name, sink] : sinks) out[name] = sink.results();
  return out;
}

FleetResults RunSharded(const std::vector<Event>& events, bool shared,
                        size_t num_shards, Timestamp max_lateness = 0,
                        const FaultInjector* injector = nullptr) {
  EngineOptions options;
  options.num_shards = num_shards;
  options.shared_eval = shared;
  options.max_lateness_micros = max_lateness;
  if (injector != nullptr) {
    options.fault_policy = FaultPolicy::kSkipAndCount;
    options.fault_injector = injector;
  }
  Engine engine(options);
  EXPECT_TRUE(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  std::map<std::string, CollectSink> sinks;
  for (const auto& [name, query] : Fleet()) {
    const Status s =
        engine.RegisterQuery(name, query, QueryOptions{}, &sinks[name]);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
  }
  for (const Event& e : events) {
    const Status push = engine.Push(Event(e));
    EXPECT_TRUE(push.ok()) << push.ToString();
  }
  engine.Finish();
  FleetResults out;
  for (auto& [name, sink] : sinks) out[name] = sink.results();
  return out;
}

void ExpectIdentical(const FleetResults& expected, const FleetResults& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (const auto& [name, exp] : expected) {
    const auto it = actual.find(name);
    ASSERT_NE(it, actual.end()) << label << " missing " << name;
    const auto& act = it->second;
    ASSERT_EQ(exp.size(), act.size()) << label << " query " << name;
    for (size_t i = 0; i < exp.size(); ++i) {
      const std::string at = label + " " + name + " @" + std::to_string(i);
      EXPECT_EQ(exp[i].window_id, act[i].window_id) << at;
      EXPECT_EQ(exp[i].rank, act[i].rank) << at;
      EXPECT_EQ(exp[i].provisional, act[i].provisional) << at;
      EXPECT_EQ(exp[i].match.first_ts, act[i].match.first_ts) << at;
      EXPECT_EQ(exp[i].match.last_ts, act[i].match.last_ts) << at;
      EXPECT_EQ(exp[i].match.last_sequence, act[i].match.last_sequence) << at;
      EXPECT_DOUBLE_EQ(exp[i].match.score, act[i].match.score) << at;
      EXPECT_EQ(exp[i].match.row, act[i].match.row) << at;
    }
  }
}

size_t TotalResults(const FleetResults& r) {
  size_t n = 0;
  for (const auto& [name, results] : r) n += results.size();
  return n;
}

TEST(MultiQueryEquivalenceTest, SharedSerialIdenticalToUnshared) {
  for (uint64_t seed : {42u, 7u}) {
    const auto events = StockEvents(seed, 4000);
    const auto baseline = RunSerial(events, /*shared=*/false);
    EXPECT_GT(TotalResults(baseline), 0u) << "weak workload";
    ExpectIdentical(baseline, RunSerial(events, /*shared=*/true),
                    "serial seed=" + std::to_string(seed));
  }
}

TEST(MultiQueryEquivalenceTest, SharedShardedIdenticalToUnsharedSerial) {
  const auto events = StockEvents(42, 3000);
  const auto baseline = RunSerial(events, /*shared=*/false);
  EXPECT_GT(TotalResults(baseline), 0u) << "weak workload";
  for (size_t shards : {1u, 2u, 4u}) {
    ExpectIdentical(baseline, RunSharded(events, /*shared=*/true, shards),
                    "sharded shared shards=" + std::to_string(shards));
    ExpectIdentical(baseline, RunSharded(events, /*shared=*/false, shards),
                    "sharded unshared shards=" + std::to_string(shards));
  }
}

TEST(MultiQueryEquivalenceTest, IdenticalUnderInjectedFaults) {
  // An armed injector degrades the shared path to full per-query visits so
  // the schedule fires at per-query-path positions; output must still be
  // identical to the unshared faulted run.
  const auto events = StockEvents(42, 3000);
  const std::vector<uint64_t> poison_keys = {7, 100, 101, 555, 1500, 2999};

  FaultInjector baseline_injector(1);
  baseline_injector.ArmKeys(fault_points::kEvalPoison, poison_keys);
  const auto baseline =
      RunSerial(events, /*shared=*/false, 0, &baseline_injector);
  EXPECT_GT(TotalResults(baseline), 0u) << "weak faulted workload";

  FaultInjector shared_injector(1);
  shared_injector.ArmKeys(fault_points::kEvalPoison, poison_keys);
  ExpectIdentical(baseline,
                  RunSerial(events, /*shared=*/true, 0, &shared_injector),
                  "faulted serial shared");

  FaultInjector sharded_injector(1);
  sharded_injector.ArmKeys(fault_points::kEvalPoison, poison_keys);
  ExpectIdentical(
      baseline,
      RunSharded(events, /*shared=*/true, 2, 0, &sharded_injector),
      "faulted sharded shared");
}

// Shuffles within consecutive event-time blocks of span <= bound (the
// disorder_test idiom): every event arrives within `bound` of in-order.
std::vector<Event> BlockShuffle(const std::vector<Event>& events,
                                Timestamp bound, uint64_t seed) {
  std::vector<Event> out = events;
  std::mt19937_64 rng(seed);
  size_t block_start = 0;
  for (size_t i = 0; i <= out.size(); ++i) {
    if (i == out.size() ||
        out[i].timestamp() - out[block_start].timestamp() > bound) {
      for (size_t j = i; j > block_start + 1; --j) {
        std::uniform_int_distribution<size_t> pick(block_start, j - 1);
        std::swap(out[pick(rng)], out[j - 1]);
      }
      block_start = i;
    }
  }
  return out;
}

TEST(MultiQueryEquivalenceTest, IdenticalUnderDisorder) {
  constexpr Timestamp kLateness = 5000;  // 5ms, a few events deep
  const auto events = StockEvents(42, 3000);
  const auto shuffled = BlockShuffle(events, kLateness, 1234);
  const auto baseline = RunSerial(events, /*shared=*/false);
  EXPECT_GT(TotalResults(baseline), 0u) << "weak workload";
  ExpectIdentical(baseline,
                  RunSerial(shuffled, /*shared=*/true, kLateness),
                  "disorder serial shared");
  ExpectIdentical(baseline,
                  RunSharded(shuffled, /*shared=*/true, 2, kLateness),
                  "disorder sharded shared");
}

TEST(MultiQueryEquivalenceTest, SharingCountersAreLive) {
  const auto events = StockEvents(42, 2000);
  EngineOptions options;
  options.shared_eval = true;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  std::map<std::string, CollectSink> sinks;
  for (const auto& [name, query] : Fleet()) {
    ASSERT_TRUE(
        engine.RegisterQuery(name, query, QueryOptions{}, &sinks[name]).ok());
  }
  for (const Event& e : events) ASSERT_TRUE(engine.Push(Event(e)).ok());
  engine.Finish();

  const MetricsSnapshot snap = engine.Snapshot();
  EXPECT_TRUE(snap.sharing.shared_eval);
  // Two dedups: the equality pair (constants differ) and the dip pair
  // (thresholds differ). The range/residual rebounds have different
  // predicate *shapes* (>, >=, <, arithmetic), so each keeps its own
  // template: 8 queries, 6 live templates.
  EXPECT_EQ(snap.sharing.queries_deduped, 2u);
  EXPECT_EQ(snap.sharing.live_templates, 6u);
  EXPECT_EQ(snap.sharing.predindex_probes, events.size());
  EXPECT_GT(snap.sharing.predindex_candidates, 0u);
  // Candidates < probes * fleet-size: the index actually rules queries out.
  EXPECT_LT(snap.sharing.predindex_candidates, events.size() * Fleet().size());
  EXPECT_GT(snap.sharing.shared_window_buffers, 0u);
  // Per-query event counts match the routed stream even though the index
  // skipped most matcher visits.
  for (const auto& q : snap.queries) {
    EXPECT_EQ(q.metrics.events, events.size()) << q.name;
  }
  // Serialization carries the block.
  EXPECT_NE(snap.ToJson().find("\"sharing\""), std::string::npos);
  EXPECT_NE(snap.ToString().find("shared_eval=on"), std::string::npos);
}

TEST(MultiQueryEquivalenceTest, ShardedSharingCountersAreLive) {
  const auto events = StockEvents(42, 2000);
  EngineOptions options;
  options.num_shards = 2;
  options.shared_eval = true;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  std::map<std::string, CollectSink> sinks;
  for (const auto& [name, query] : Fleet()) {
    ASSERT_TRUE(
        engine.RegisterQuery(name, query, QueryOptions{}, &sinks[name]).ok());
  }
  for (const Event& e : events) ASSERT_TRUE(engine.Push(Event(e)).ok());
  engine.Finish();

  const MetricsSnapshot snap = engine.Snapshot();
  EXPECT_TRUE(snap.sharing.shared_eval);
  EXPECT_EQ(snap.sharing.queries_deduped, 2u);
  EXPECT_EQ(snap.sharing.live_templates, 6u);
  EXPECT_EQ(snap.sharing.predindex_probes, events.size());
  EXPECT_GT(snap.sharing.predindex_candidates, 0u);
}

// Hot add/remove: removing one of two template-sharing queries mid-stream
// must leave the survivor's output untouched and must not tear down the
// shared template until the last holder goes.
TEST(MultiQueryEquivalenceTest, HotRemoveKeepsTemplateAndOutput) {
  const auto events = StockEvents(42, 4000);
  const std::string q_keep =
      "SELECT a.symbol, a.price, b.price FROM Stock "
      "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
      "WHERE a.price > 20 AND b.price > a.price "
      "WITHIN 10 MILLISECONDS "
      "RANK BY b.price - a.price DESC LIMIT 5 EMIT ON WINDOW CLOSE";
  const std::string q_drop =
      "SELECT a.symbol, a.price, b.price FROM Stock "
      "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
      "WHERE a.price > 500 AND b.price > a.price "
      "WITHIN 10 MILLISECONDS "
      "RANK BY b.price - a.price DESC LIMIT 5 EMIT ON WINDOW CLOSE";

  // Reference: the surviving query alone over the full stream.
  Engine ref((EngineOptions()));
  ASSERT_TRUE(ref.RegisterSchema(StockGenerator::MakeSchema()).ok());
  CollectSink ref_sink;
  ASSERT_TRUE(ref.RegisterQuery("keep", q_keep, QueryOptions{}, &ref_sink).ok());
  for (const Event& e : events) ASSERT_TRUE(ref.Push(Event(e)).ok());
  ref.Finish();
  ASSERT_FALSE(ref_sink.results().empty()) << "weak workload";

  Engine engine((EngineOptions()));
  ASSERT_TRUE(engine.RegisterSchema(StockGenerator::MakeSchema()).ok());
  CollectSink keep_sink, drop_sink;
  ASSERT_TRUE(
      engine.RegisterQuery("keep", q_keep, QueryOptions{}, &keep_sink).ok());
  ASSERT_TRUE(
      engine.RegisterQuery("drop", q_drop, QueryOptions{}, &drop_sink).ok());
  // Both queries canonicalize to one template.
  EXPECT_EQ(engine.template_registry().live_templates(), 1u);
  EXPECT_EQ(engine.GetQuery("keep").value()->nfa_template().get(),
            engine.GetQuery("drop").value()->nfa_template().get());

  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.Push(Event(events[i])).ok());
  }
  ASSERT_TRUE(engine.RemoveQuery("drop").ok());
  // The survivor still holds the template.
  EXPECT_EQ(engine.template_registry().live_templates(), 1u);
  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE(engine.Push(Event(events[i])).ok());
  }
  engine.Finish();

  const auto& exp = ref_sink.results();
  const auto& act = keep_sink.results();
  ASSERT_EQ(exp.size(), act.size());
  for (size_t i = 0; i < exp.size(); ++i) {
    EXPECT_EQ(exp[i].window_id, act[i].window_id) << i;
    EXPECT_EQ(exp[i].rank, act[i].rank) << i;
    EXPECT_DOUBLE_EQ(exp[i].match.score, act[i].match.score) << i;
    EXPECT_EQ(exp[i].match.row, act[i].match.row) << i;
  }

  ASSERT_TRUE(engine.RemoveQuery("keep").ok());
  EXPECT_EQ(engine.template_registry().live_templates(), 0u);
}

}  // namespace
}  // namespace cepr
