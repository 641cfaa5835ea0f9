// Shape tests for the metrics snapshot types and their JSON wire format
// (the contract examples/monitor and external pollers consume).

#include "runtime/metrics.h"

#include <gtest/gtest.h>

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
