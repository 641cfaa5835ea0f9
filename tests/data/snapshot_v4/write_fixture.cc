// Writes the cross-version snapshot fixture under tests/data/snapshot_v4/.
// Not part of the build; compile it against the engine build whose format
// the fixture should capture, from the repository root:
//
//   g++ -std=c++20 -I src -o write_fixture
//       tests/data/snapshot_v4/write_fixture.cc build/src/libcepr.a -lpthread
//   ./write_fixture tests/data/snapshot_v4/inline 0
//   ./write_fixture tests/data/snapshot_v4/shards2 2
//
// Drives one ranked query over a small disordered Stock stream with a WAL:
// engine A ingests, checkpoints and crashes; engine B restores A (replaying
// A's WAL tail), ingests more, checkpoints twice (the second checkpoint is
// the fixture) and crashes with a journaled tail past the fixture's cut.
// counters.txt records every counter as read back by this same build:
//   cut <key> <value>       after Restore(snapshot) alone;
//   replayed <key> <value>  after Restore(snapshot, journal) and Finish().
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "workload/stock.h"

using namespace cepr;

namespace {

constexpr char kQuery[] =
    "SELECT a.symbol, a.price, SUM(b.volume) "
    "FROM Stock MATCH PATTERN SEQ(a, b+) "
    "USING SKIP_TILL_ANY_MATCH PARTITION BY symbol "
    "WHERE a.volume > 3000 AND b[i].volume < 6000 "
    "WITHIN 4 MILLISECONDS "
    "RANK BY SUM(b.volume) DESC "
    "LIMIT 3 EMIT ON WINDOW CLOSE";

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

// Arrival order: every 7th pair swapped (reordered within the 3 ms bound),
// and every 50th event followed by a copy 10 ms in the past (dropped late).
std::vector<Event> Arrivals() {
  StockOptions options;
  options.num_symbols = 3;
  options.v_probability = 0.05;
  options.base.interval_micros = 1000;
  StockGenerator gen(options);
  std::vector<Event> in = gen.Take(240);
  std::vector<Event> out;
  for (size_t i = 0; i < in.size(); ++i) {
    if (i % 7 == 3 && i + 1 < in.size()) {
      out.push_back(in[i + 1]);
      out.push_back(in[i]);
      ++i;
    } else {
      out.push_back(in[i]);
    }
    if (i % 50 == 49) {
      out.push_back(Event(in[i].schema(), in[i].timestamp() - 10000,
                          in[i].values()));
    }
  }
  return out;
}

void Ingest(Engine* engine, const std::vector<Event>& events, size_t begin,
            size_t end) {
  const SchemaPtr schema = engine->GetSchema("Stock").value();
  for (size_t i = begin; i < end; ++i) {
    const Event& e = events[i];
    const Status s = engine->Push(Event(schema, e.timestamp(), e.values()));
    if (!s.ok() && s.code() != StatusCode::kInvalidArgument) Check(s, "push");
  }
}

EngineOptions Options(size_t shards) {
  EngineOptions options;
  options.num_shards = shards;
  options.max_lateness_micros = 3000;
  options.late_policy = LatePolicy::kDropAndCount;
  options.max_runs_per_partition = 2;
  return options;
}

using Counters = std::map<std::string, uint64_t>;

void Record(const Engine& engine, bool router_counters, Counters* out) {
  const MetricsSnapshot snap = engine.Snapshot();
  Counters& c = *out;
  c["engine.events_ingested"] = snap.events_ingested;
  c["engine.events_quarantined"] = snap.events_quarantined;
  c["engine.queries_deduped"] = snap.sharing.queries_deduped;
  const DurabilityStats& d = snap.durability;
  c["durability.checkpoints_written"] = d.checkpoints_written;
  c["durability.checkpoint_bytes"] = d.checkpoint_bytes;
  c["durability.wal_records_appended"] = d.wal_records_appended;
  c["durability.recovery_events_replayed"] = d.recovery_events_replayed;
  const ReorderStats& r = snap.reorder;
  c["reorder.events_reordered"] = r.events_reordered;
  c["reorder.events_late_dropped"] = r.events_late_dropped;
  c["reorder.events_clamped"] = r.events_clamped;
  c["reorder.reorder_buffer_peak"] = r.reorder_buffer_peak;
  const MatcherStats& m = snap.queries.at(0).metrics.matcher;
  c["matcher.events"] = m.events;
  c["matcher.runs_created"] = m.runs_created;
  c["matcher.runs_forked"] = m.runs_forked;
  c["matcher.runs_completed"] = m.runs_completed;
  c["matcher.runs_expired"] = m.runs_expired;
  c["matcher.runs_killed_strict"] = m.runs_killed_strict;
  c["matcher.runs_killed_negation"] = m.runs_killed_negation;
  c["matcher.runs_pruned_score"] = m.runs_pruned_score;
  c["matcher.runs_dropped_capacity"] = m.runs_dropped_capacity;
  c["matcher.events_quarantined"] = m.events_quarantined;
  c["matcher.runs_poisoned"] = m.runs_poisoned;
  c["matcher.matches"] = m.matches;
  c["matcher.runs_cloned"] = m.runs_cloned;
  c["matcher.binding_nodes_allocated"] = m.binding_nodes_allocated;
  c["matcher.predcache_hits"] = m.predcache_hits;
  c["matcher.predcache_misses"] = m.predcache_misses;
  c["matcher.dag_nodes_allocated"] = m.dag_nodes_allocated;
  c["matcher.dag_nodes_shared"] = m.dag_nodes_shared;
  c["matcher.peak_active_runs"] = m.peak_active_runs;
  c["matcher.peak_dag_nodes"] = m.peak_dag_nodes;
  for (size_t i = 0; i < snap.shards.size(); ++i) {
    const ShardStats& s = snap.shards[i];
    const std::string p = "shard" + std::to_string(i) + ".";
    c[p + "events"] = s.events;
    c[p + "matches"] = s.matches;
    c[p + "barriers"] = s.barriers;
    c[p + "batches_published"] = s.batches_published;
    // Router-side ring occupancy depends on thread timing during replay.
    if (router_counters) c[p + "queue_high_water"] = s.queue_high_water;
    c[p + "enqueue_stalls"] = s.enqueue_stalls;
    c[p + "stall_us"] = s.stall_us;
    c[p + "stalls_tripped"] = s.stalls_tripped;
  }
  if (!snap.shards.empty()) {
    c["merge.windows_merged"] = snap.merge.windows_merged;
    c["merge.results_emitted"] = snap.merge.results_emitted;
  }
}

void Copy(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <out_dir> <num_shards>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  const size_t shards = std::stoul(argv[2]);
  const std::string tmp = dir + "/tmp.";
  const std::string wal = tmp + "wal";
  std::remove(wal.c_str());
  const std::vector<Event> events = Arrivals();
  CollectSink sink_a, sink_b, sink_c, sink_d;
  {
    Engine a(Options(shards));
    Check(a.OpenWal(wal), "open wal");
    Check(a.RegisterSchema(StockGenerator::MakeSchema()), "schema");
    QueryOptions query_options;
    query_options.ranker = RankerPolicy::kPruned;
    Check(a.RegisterQuery("q", kQuery, query_options, &sink_a), "query");
    Ingest(&a, events, 0, 100);
    Check(a.Checkpoint(tmp + "a.snap"), "checkpoint a");
    Ingest(&a, events, 100, 140);
    Check(a.SyncWal(), "sync a");
  }
  {
    Engine b(Options(shards));
    Check(b.Restore(tmp + "a.snap", wal,
                    [&](const std::string&) { return &sink_b; }),
          "restore b");
    Ingest(&b, events, 140, 200);
    Check(b.Checkpoint(tmp + "b.snap"), "checkpoint b");
    Ingest(&b, events, 200, 220);
    Check(b.Checkpoint(dir + "/snapshot.bin"), "checkpoint fixture");
    Ingest(&b, events, 220, events.size());
    Check(b.SyncWal(), "sync b");
  }
  Copy(wal, dir + "/journal.wal");
  Counters cut, replayed;
  {
    Engine c(Options(shards));
    Check(c.Restore(dir + "/snapshot.bin", "",
                    [&](const std::string&) { return &sink_c; }),
          "restore cut");
    Record(c, true, &cut);
  }
  {
    Engine d(Options(shards));
    Check(d.Restore(dir + "/snapshot.bin", wal,
                    [&](const std::string&) { return &sink_d; }),
          "restore replay");
    d.Finish();
    Record(d, shards == 0, &replayed);
  }
  std::ofstream out(dir + "/counters.txt", std::ios::trunc);
  for (const auto& [k, v] : cut) out << "cut " << k << " " << v << "\n";
  for (const auto& [k, v] : replayed) {
    out << "replayed " << k << " " << v << "\n";
  }
  for (const char* f : {"wal", "a.snap", "b.snap"}) {
    std::remove((tmp + f).c_str());
  }
  return 0;
}
