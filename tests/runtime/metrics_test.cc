// Shape tests for the metrics snapshot types and their JSON wire format
// (the contract examples/monitor and external pollers consume).

#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/binio.h"
#include "runtime/engine.h"
#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::StockSchema;
using testing::Tick;

// Every '{' and '[' must close; strings must not leak raw quotes. A cheap
// structural check that keeps the format honest without a JSON parser.
void ExpectBalancedJson(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0) << json;
    ASSERT_GE(brackets, 0) << json;
  }
  EXPECT_FALSE(in_string) << json;
  EXPECT_EQ(braces, 0) << json;
  EXPECT_EQ(brackets, 0) << json;
}

TEST(MetricsJsonTest, ShardStatsFields) {
  ShardStats s;
  s.events = 7;
  s.queue_high_water = 3;
  const std::string json = s.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"events\":7"), std::string::npos);
  EXPECT_NE(json.find("\"queue_high_water\":3"), std::string::npos);
  EXPECT_NE(json.find("\"enqueue_stalls\":0"), std::string::npos);
}

TEST(MetricsJsonTest, MergeStatsFields) {
  MergeStats m;
  m.windows_merged = 2;
  m.results_emitted = 5;
  EXPECT_EQ(m.ToJson(),
            "{\"windows_merged\":2,\"results_emitted\":5}");
}

TEST(MetricsJsonTest, SharingStatsCarriesHotPathCounters) {
  SharingStats s;
  s.bytecode_compiled_preds = 6;
  const std::string json = s.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"bytecode_compiled_preds\":6"), std::string::npos);
  EXPECT_NE(s.ToString().find("bytecode_compiled_preds=6"),
            std::string::npos);
}

TEST(MetricsJsonTest, QueryMetricsNestsHistograms) {
  QueryMetrics m;
  m.events = 4;
  m.event_processing_ns.Record(1000);
  const std::string json = m.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"matcher\":{"), std::string::npos);
  EXPECT_NE(json.find("\"processing_ns\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"emission_delay_us\":{\"count\":0"),
            std::string::npos);
}

TEST(MetricsJsonTest, SnapshotEscapesQueryNames) {
  MetricsSnapshot snap;
  snap.queries.push_back({"evil\"name\\with\ncontrol\x01", QueryMetrics{}});
  const std::string json = snap.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("evil\\\"name\\\\with\\ncontrol\\u0001"),
            std::string::npos)
      << json;
}

TEST(MetricsJsonTest, MetricsCellSnapshotReadsCounters) {
  MetricsCell cell;
  cell.events.Add(10);
  cell.matches.Increment();
  cell.queue_high_water.Observe(5);
  cell.queue_high_water.Observe(3);  // max keeps 5
  cell.enqueue_stalls.Increment();
  const ShardStats s = cell.Snapshot();
  EXPECT_EQ(s.events, 10u);
  EXPECT_EQ(s.matches, 1u);
  EXPECT_EQ(s.queue_high_water, 5u);
  EXPECT_EQ(s.enqueue_stalls, 1u);
}

// --- Counter families pinned field by field ---------------------------------
//
// Every field of each counter family gets a distinct value, so a field that
// is dropped, renamed, reordered or merged by the wrong rule shows up as an
// exact-string or exact-value mismatch.

MatcherStats DistinctMatcherStats(uint64_t base) {
  MatcherStats m;
  m.events = base + 1;
  m.runs_created = base + 2;
  m.runs_forked = base + 3;
  m.runs_completed = base + 4;
  m.runs_expired = base + 5;
  m.runs_killed_strict = base + 6;
  m.runs_killed_negation = base + 7;
  m.runs_pruned_score = base + 8;
  m.runs_dropped_capacity = base + 9;
  m.events_quarantined = base + 10;
  m.runs_poisoned = base + 11;
  m.matches = base + 12;
  m.runs_cloned = base + 13;
  m.binding_nodes_allocated = base + 14;
  m.predcache_hits = base + 15;
  m.predcache_misses = base + 16;
  m.dag_nodes_allocated = base + 17;
  m.dag_nodes_shared = base + 18;
  m.peak_active_runs = base + 19;
  m.peak_dag_nodes = base + 20;
  return m;
}

std::vector<uint64_t> MatcherValues(const MatcherStats& m) {
  return {m.events,
          m.runs_created,
          m.runs_forked,
          m.runs_completed,
          m.runs_expired,
          m.runs_killed_strict,
          m.runs_killed_negation,
          m.runs_pruned_score,
          m.runs_dropped_capacity,
          m.events_quarantined,
          m.runs_poisoned,
          m.matches,
          m.runs_cloned,
          m.binding_nodes_allocated,
          m.predcache_hits,
          m.predcache_misses,
          m.dag_nodes_allocated,
          m.dag_nodes_shared,
          static_cast<uint64_t>(m.peak_active_runs),
          static_cast<uint64_t>(m.peak_dag_nodes)};
}

constexpr char kMatcherJson[] =
    "{\"events\":1,\"runs_created\":2,\"runs_forked\":3,"
    "\"runs_completed\":4,\"runs_expired\":5,\"runs_killed_strict\":6,"
    "\"runs_killed_negation\":7,\"runs_pruned_score\":8,"
    "\"runs_dropped_capacity\":9,\"events_quarantined\":10,"
    "\"runs_poisoned\":11,\"matches\":12,\"runs_cloned\":13,"
    "\"binding_nodes_allocated\":14,\"predcache_hits\":15,"
    "\"predcache_misses\":16,\"dag_nodes_allocated\":17,"
    "\"dag_nodes_shared\":18,\"peak_active_runs\":19,\"peak_dag_nodes\":20}";

ShardStats DistinctShardStats() {
  ShardStats s;
  s.events = 31;
  s.matches = 32;
  s.barriers = 33;
  s.batches_published = 34;
  s.queue_high_water = 35;
  s.enqueue_stalls = 36;
  s.stall_us = 37;
  s.stalls_tripped = 38;
  return s;
}

constexpr char kShardJson[] =
    "{\"events\":31,\"matches\":32,\"barriers\":33,\"batches_published\":34,"
    "\"queue_high_water\":35,\"enqueue_stalls\":36,\"stall_us\":37,"
    "\"stalls_tripped\":38}";

MergeStats DistinctMergeStats() {
  MergeStats m;
  m.windows_merged = 41;
  m.results_emitted = 42;
  return m;
}

constexpr char kMergeJson[] = "{\"windows_merged\":41,\"results_emitted\":42}";

DurabilityStats DistinctDurabilityStats() {
  DurabilityStats d;
  d.checkpoints_written = 51;
  d.checkpoint_bytes = 52;
  d.wal_records_appended = 53;
  d.recovery_events_replayed = 54;
  return d;
}

constexpr char kDurabilityJson[] =
    "{\"checkpoints_written\":51,\"checkpoint_bytes\":52,"
    "\"wal_records_appended\":53,\"recovery_events_replayed\":54}";

ReorderStats DistinctReorderStats(uint64_t base) {
  ReorderStats r;
  r.events_reordered = base + 1;
  r.events_late_dropped = base + 2;
  r.events_clamped = base + 3;
  r.reorder_buffer_peak = base + 4;
  return r;
}

SharingStats DistinctSharingStats() {
  SharingStats s;
  s.shared_eval = true;
  s.queries_deduped = 71;
  s.live_templates = 72;
  s.predindex_probes = 73;
  s.predindex_candidates = 74;
  s.bytecode_compiled_preds = 75;
  s.shared_window_buffers = 76;
  return s;
}

constexpr char kSharingJson[] =
    "{\"shared_eval\":true,\"queries_deduped\":71,\"live_templates\":72,"
    "\"predindex_probes\":73,\"predindex_candidates\":74,"
    "\"bytecode_compiled_preds\":75,\"shared_window_buffers\":76}";

TEST(CounterFamilyPinTest, EachFamilyToJsonIsExact) {
  EXPECT_EQ(DistinctShardStats().ToJson(), kShardJson);
  EXPECT_EQ(DistinctMergeStats().ToJson(), kMergeJson);
  EXPECT_EQ(DistinctDurabilityStats().ToJson(), kDurabilityJson);
  EXPECT_EQ(DistinctSharingStats().ToJson(), kSharingJson);
}

// MatcherStats and ReorderStats render inside the engine snapshot; pin the
// whole document so every nested key and its position are fixed.
TEST(CounterFamilyPinTest, MetricsSnapshotToJsonIsExact) {
  MetricsSnapshot snap;
  snap.events_ingested = 81;
  snap.events_quarantined = 82;
  snap.reorder = DistinctReorderStats(60);
  snap.num_shards = 1;
  QueryMetrics q;
  q.events = 91;
  q.matches = 92;
  q.results = 93;
  q.prune_checks = 94;
  q.prunes = 95;
  q.matches_enumerated = 96;
  q.enumeration_cutoffs = 97;
  q.matcher = DistinctMatcherStats(0);
  snap.queries.push_back({"q", q});
  snap.shards.push_back(DistinctShardStats());
  snap.merge = DistinctMergeStats();
  snap.sharing = DistinctSharingStats();
  snap.durability = DistinctDurabilityStats();
  const std::string histogram = Histogram().ToJson();
  EXPECT_EQ(snap.ToJson(),
            std::string("{\"events_ingested\":81,\"events_quarantined\":82,"
                        "\"reorder\":{\"events_reordered\":61,"
                        "\"events_late_dropped\":62,\"events_clamped\":63,"
                        "\"reorder_buffer_peak\":64},\"num_shards\":1,"
                        "\"queries\":[{\"name\":\"q\",\"metrics\":{"
                        "\"events\":91,\"matches\":92,\"results\":93,"
                        "\"prune_checks\":94,\"prunes\":95,"
                        "\"matches_enumerated\":96,"
                        "\"enumeration_cutoffs\":97,\"matcher\":") +
                kMatcherJson + ",\"processing_ns\":" + histogram +
                ",\"emission_delay_us\":" + histogram +
                "}}],\"shards\":[" + kShardJson + "],\"merge\":" +
                kMergeJson + ",\"sharing\":" + kSharingJson +
                ",\"durability\":" + kDurabilityJson + "}");
}

// Per-shard matcher peaks are disjoint run sets, so they sum like every
// other matcher counter; a reorder peak is one stream's depth, so it maxes.
TEST(CounterFamilyPinTest, AccumulateRulePerField) {
  MatcherStats m = DistinctMatcherStats(0);
  m.Accumulate(DistinctMatcherStats(100));
  const std::vector<uint64_t> sums = MatcherValues(m);
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], 2 * (i + 1) + 100) << "matcher field " << i;
  }

  ReorderStats r = DistinctReorderStats(10);
  r.Accumulate(DistinctReorderStats(0));
  EXPECT_EQ(r.events_reordered, 11u + 1u);
  EXPECT_EQ(r.events_late_dropped, 12u + 2u);
  EXPECT_EQ(r.events_clamped, 13u + 3u);
  EXPECT_EQ(r.reorder_buffer_peak, 14u);
  ReorderStats deeper = DistinctReorderStats(0);
  deeper.Accumulate(DistinctReorderStats(10));
  EXPECT_EQ(deeper.reorder_buffer_peak, 14u);
}

// Save writes the fields as little-endian u64s in declaration order (the
// checkpoint format), and Load reads them back.
TEST(CounterFamilyPinTest, MatcherStatsSaveLoadRoundTrips) {
  const MatcherStats m = DistinctMatcherStats(1000);
  BinWriter w;
  m.Save(&w);
  BinReader raw(w.buffer());
  for (const uint64_t want : MatcherValues(m)) {
    uint64_t got = 0;
    ASSERT_TRUE(raw.U64(&got));
    EXPECT_EQ(got, want);
  }
  EXPECT_TRUE(raw.AtEnd());

  BinReader r(w.buffer());
  MatcherStats loaded;
  ASSERT_TRUE(loaded.Load(&r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(MatcherValues(loaded), MatcherValues(m));

  BinReader truncated(w.buffer().data(), w.buffer().size() - 1);
  MatcherStats partial;
  EXPECT_FALSE(partial.Load(&truncated));
}

TEST(CounterFamilyPinTest, AtomicMatcherStatsRestoreSnapshotRoundTrips) {
  const MatcherStats m = DistinctMatcherStats(2000);
  AtomicMatcherStats live;
  live.Restore(m);
  EXPECT_EQ(MatcherValues(live.Snapshot()), MatcherValues(m));
}

// Every counter of every family must appear backticked in the metrics
// reference of docs/OPERATIONS.md, so a new list entry fails here until its
// row is written.
template <typename Stats>
void ExpectDocumented(const std::string& doc, const char* family) {
  for (const auto& f : Stats::Fields()) {
    EXPECT_NE(doc.find("`" + std::string(f.name) + "`"), std::string::npos)
        << family << "::" << f.name << " is not documented";
  }
}

TEST(MetricsDocTest, EveryCounterIsDocumented) {
  std::ifstream in(CEPR_OPERATIONS_DOC);
  ASSERT_TRUE(in.good()) << CEPR_OPERATIONS_DOC;
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  ExpectDocumented<MatcherStats>(doc, "MatcherStats");
  ExpectDocumented<ShardStats>(doc, "ShardStats");
  ExpectDocumented<MergeStats>(doc, "MergeStats");
  ExpectDocumented<DurabilityStats>(doc, "DurabilityStats");
  ExpectDocumented<ReorderStats>(doc, "ReorderStats");
  ExpectDocumented<SharingStats>(doc, "SharingStats");
}

class EngineSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterSchema(StockSchema()).ok());
    ASSERT_TRUE(engine_
                    .RegisterQuery("rise",
                                   "SELECT a.price, b.price FROM Stock "
                                   "MATCH PATTERN SEQ(a, b) "
                                   "PARTITION BY symbol "
                                   "WHERE b.price > a.price "
                                   "WITHIN 10 SECONDS "
                                   "RANK BY b.price - a.price DESC "
                                   "LIMIT 5 EMIT ON WINDOW CLOSE",
                                   QueryOptions{}, &sink_)
                    .ok());
  }

  Engine engine_;
  CollectSink sink_;
};

TEST_F(EngineSnapshotTest, SerialSnapshotAggregatesQueries) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine_.Push(Tick(i * 1000, 10.0 + (i % 7), 1, "IBM")).ok());
  }
  engine_.Finish();

  const MetricsSnapshot snap = engine_.Snapshot();
  EXPECT_EQ(snap.events_ingested, 50u);
  EXPECT_EQ(snap.num_shards, 1u);
  ASSERT_EQ(snap.queries.size(), 1u);
  EXPECT_EQ(snap.queries[0].name, "rise");
  EXPECT_EQ(snap.queries[0].metrics.events, 50u);
  EXPECT_EQ(snap.queries[0].metrics.results, sink_.results().size());
  EXPECT_TRUE(snap.shards.empty());

  // GetQueryMetrics is the same data through the narrow door.
  const QueryMetrics m = engine_.GetQueryMetrics("rise").value();
  EXPECT_EQ(m.events, 50u);
  EXPECT_EQ(m.matches, snap.queries[0].metrics.matches);
  EXPECT_FALSE(engine_.GetQueryMetrics("nope").ok());

  const std::string json = snap.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"events_ingested\":50"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rise\""), std::string::npos);
  EXPECT_NE(snap.ToString().find("query rise"), std::string::npos);
}

}  // namespace
}  // namespace cepr
