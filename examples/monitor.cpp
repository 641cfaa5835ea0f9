// Live monitoring demo: all three domain streams run through a sharded
// Engine (num_shards, default 4; 0 runs them inline) while a background
// monitor thread polls Engine::Snapshot() — the thread-safe metrics API —
// and repaints a dashboard with each query's counters, latency
// percentiles, per-shard queue pressure, and the current top ranked
// results. On exit it dumps the final snapshot as JSON (the wire format an
// external poller would scrape).
//
// Usage: monitor [rounds] [events_per_round] [num_shards]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.h"
#include "workload/health.h"
#include "workload/stock.h"
#include "workload/traffic.h"

namespace {

// Keeps the latest closed-window results per query. Results arrive on the
// ingest thread while the monitor thread repaints, so access is locked.
class PanelSink : public cepr::Sink {
 public:
  void OnResult(const cepr::RankedResult& result) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.window_id != window_) {
      window_ = result.window_id;
      rows_.clear();
    }
    rows_.push_back(result);
  }

  // Copies under the lock; the monitor paints from the copy.
  std::vector<cepr::RankedResult> rows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_;
  }
  int64_t window() const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<cepr::RankedResult> rows_;
  int64_t window_ = -1;
};

void PaintQuery(const cepr::MetricsSnapshot::QueryEntry& entry,
                const PanelSink& panel) {
  const cepr::QueryMetrics& m = entry.metrics;
  std::ostringstream out;
  out << "┌─ " << entry.name << " ── window " << panel.window()
      << " ── events " << m.events << ", matches " << m.matches
      << ", results " << m.results;
  if (m.event_processing_ns.count() > 0) {
    out << ", p99 " << static_cast<int64_t>(m.event_processing_ns.Percentile(99))
        << "ns";
  }
  out << "\n│  hot path: cloned " << m.matcher.runs_cloned << ", binding nodes "
      << m.matcher.binding_nodes_allocated << ", predcache "
      << m.matcher.predcache_hits << "/"
      << (m.matcher.predcache_hits + m.matcher.predcache_misses) << " hits\n";
  if (m.matcher.dag_nodes_allocated > 0) {
    out << "│  match dag: nodes " << m.matcher.dag_nodes_allocated << " (shared "
        << m.matcher.dag_nodes_shared << ", peak " << m.matcher.peak_dag_nodes
        << "), enumerated " << m.matches_enumerated << ", cutoffs "
        << m.enumeration_cutoffs << "\n";
  }
  const std::vector<cepr::RankedResult> rows = panel.rows();
  if (rows.empty()) out << "│  (no ranked results yet)\n";
  for (const cepr::RankedResult& r : rows) {
    out << "│  #" << (r.rank + 1) << "  score=" << std::setw(10)
        << r.match.score << "  ";
    for (size_t i = 0; i < r.match.row.size(); ++i) {
      if (i > 0) out << ", ";
      out << r.match.row[i].ToString();
    }
    out << "\n";
  }
  out << "└─\n";
  std::cout << out.str();
}

void PaintShards(const cepr::MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "shards:";
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    const cepr::ShardStats& st = snap.shards[s];
    out << "  [" << s << "] ev=" << st.events << " hw=" << st.queue_high_water
        << " stalls=" << st.enqueue_stalls;
  }
  out << "  merge: " << snap.merge.ToString() << "\n";
  out << "ingest: reordered=" << snap.reorder.events_reordered
      << " late_dropped=" << snap.reorder.events_late_dropped
      << " clamped=" << snap.reorder.events_clamped
      << " buffer_peak=" << snap.reorder.reorder_buffer_peak << "\n";
  out << "sharing: " << snap.sharing.ToString() << "\n";
  out << "durability: " << snap.durability.ToString() << "\n";
  std::cout << out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 5;
  const size_t per_round = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20000;
  const size_t num_shards = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;

  cepr::StockGenerator stock([] {
    cepr::StockOptions o;
    o.v_probability = 0.01;
    return o;
  }());
  cepr::HealthGenerator health([] {
    cepr::HealthOptions o;
    o.episode_probability = 0.002;
    return o;
  }());
  cepr::TrafficGenerator traffic([] {
    cepr::TrafficOptions o;
    o.jam_probability = 0.003;
    return o;
  }());

  cepr::EngineOptions engine_options;
  engine_options.num_shards = num_shards;
  cepr::Engine engine(engine_options);
  for (const auto& schema :
       {stock.schema(), health.schema(), traffic.schema()}) {
    auto s = engine.RegisterSchema(schema);
    if (!s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }

  PanelSink stock_panel;
  PanelSink health_panel;
  PanelSink traffic_panel;
  struct Spec {
    const char* name;
    const char* text;
    PanelSink* sink;
  };
  const std::vector<Spec> specs = {
      {"crashes",
       "SELECT a.symbol, a.price, MIN(b.price) FROM Stock "
       "MATCH PATTERN SEQ(a, b+, c) PARTITION BY symbol "
       "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
       "  AND c.price > a.price "
       "WITHIN 500 MILLISECONDS "
       "RANK BY (a.price - MIN(b.price)) / a.price DESC LIMIT 3 "
       "EMIT ON WINDOW CLOSE",
       &stock_panel},
      {"alarms",
       "SELECT a.patient, MAX(r.heart_rate) FROM Vitals "
       "MATCH PATTERN SEQ(a, r+) PARTITION BY patient "
       "WHERE r[i].heart_rate > r[i-1].heart_rate + 5 "
       "  AND r[1].heart_rate > a.heart_rate + 5 AND COUNT(r) >= 3 "
       "WITHIN 1 SECONDS "
       "RANK BY MAX(r.heart_rate) - a.heart_rate DESC LIMIT 3 "
       "EMIT ON WINDOW CLOSE",
       &health_panel},
      {"jams",
       "SELECT a.sensor, a.speed, MIN(d.speed) FROM Traffic "
       "MATCH PATTERN SEQ(a, d+) PARTITION BY sensor "
       "WHERE a.speed > 60 AND d[i].speed < d[i-1].speed * 0.9 "
       "  AND d[1].speed < a.speed * 0.9 AND COUNT(d) >= 3 "
       "WITHIN 2 SECONDS "
       "RANK BY a.speed - MIN(d.speed) DESC LIMIT 3 "
       "EMIT ON WINDOW CLOSE",
       &traffic_panel},
  };
  for (const Spec& spec : specs) {
    auto s =
        engine.RegisterQuery(spec.name, spec.text, cepr::QueryOptions{}, spec.sink);
    if (!s.ok()) {
      std::cerr << spec.name << ": " << s << "\n";
      return 1;
    }
  }

  // Durability, monitored live: journal every arrival and snapshot once per
  // round while the monitor thread concurrently reads the counters.
  const std::string wal_path = "/tmp/cepr_monitor.wal";
  const std::string ckpt_path = "/tmp/cepr_monitor.ckpt";
  std::remove(wal_path.c_str());
  if (const cepr::Status s = engine.OpenWal(wal_path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // The monitor thread: polls the engine concurrently with ingest — no
  // coordination with the ingest loop beyond the stop flag. Snapshot() is
  // safe to call from here at any time (see docs/OPERATIONS.md).
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    int repaint = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const cepr::MetricsSnapshot snap = engine.Snapshot();
      std::cout << "═══ live snapshot " << ++repaint << " ── ingested "
                << snap.events_ingested << " ═══\n";
      for (const auto& entry : snap.queries) {
        const PanelSink* panel = nullptr;
        for (const Spec& spec : specs) {
          if (entry.name == spec.name) panel = spec.sink;
        }
        if (panel != nullptr) PaintQuery(entry, *panel);
      }
      PaintShards(snap);
      std::cout << "\n";
    }
  });

  for (int round = 1; round <= rounds; ++round) {
    for (size_t i = 0; i < per_round; ++i) {
      // Interleave the three domains, as the demo's multiplexed feed does.
      cepr::Status s = engine.Push(stock.Next());
      if (s.ok()) s = engine.Push(health.Next());
      if (s.ok()) s = engine.Push(traffic.Next());
      if (!s.ok()) {
        std::cerr << s << "\n";
        stop.store(true, std::memory_order_release);
        monitor.join();
        return 1;
      }
    }
    if (const cepr::Status s = engine.Checkpoint(ckpt_path); !s.ok()) {
      std::cerr << "checkpoint: " << s << "\n";
      stop.store(true, std::memory_order_release);
      monitor.join();
      return 1;
    }
  }
  engine.Finish();
  stop.store(true, std::memory_order_release);
  monitor.join();

  // Final state, both human- and machine-readable.
  const cepr::MetricsSnapshot final_snap = engine.Snapshot();
  std::cout << "═══ final ═══\n" << final_snap.ToString() << "\n\n"
            << "JSON: " << final_snap.ToJson() << "\n";
  return 0;
}
