#include "runtime/metrics.h"

namespace cepr {

namespace {

// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MatcherJson(const MatcherStats& m) {
  std::string out = "{";
  out += "\"events\":" + std::to_string(m.events);
  out += ",\"runs_created\":" + std::to_string(m.runs_created);
  out += ",\"runs_forked\":" + std::to_string(m.runs_forked);
  out += ",\"runs_completed\":" + std::to_string(m.runs_completed);
  out += ",\"runs_expired\":" + std::to_string(m.runs_expired);
  out += ",\"runs_killed_strict\":" + std::to_string(m.runs_killed_strict);
  out += ",\"runs_killed_negation\":" + std::to_string(m.runs_killed_negation);
  out += ",\"runs_pruned_score\":" + std::to_string(m.runs_pruned_score);
  out += ",\"runs_dropped_capacity\":" + std::to_string(m.runs_dropped_capacity);
  out += ",\"events_quarantined\":" + std::to_string(m.events_quarantined);
  out += ",\"runs_poisoned\":" + std::to_string(m.runs_poisoned);
  out += ",\"matches\":" + std::to_string(m.matches);
  out += ",\"runs_cloned\":" + std::to_string(m.runs_cloned);
  out += ",\"binding_nodes_allocated\":" + std::to_string(m.binding_nodes_allocated);
  out += ",\"predcache_hits\":" + std::to_string(m.predcache_hits);
  out += ",\"predcache_misses\":" + std::to_string(m.predcache_misses);
  out += ",\"dag_nodes_allocated\":" + std::to_string(m.dag_nodes_allocated);
  out += ",\"dag_nodes_shared\":" + std::to_string(m.dag_nodes_shared);
  out += ",\"peak_active_runs\":" + std::to_string(m.peak_active_runs);
  out += ",\"peak_dag_nodes\":" + std::to_string(m.peak_dag_nodes);
  out += "}";
  return out;
}

}  // namespace

std::string QueryMetrics::ToString() const {
  std::string out;
  out += "events=" + std::to_string(events);
  out += " matches=" + std::to_string(matches);
  out += " results=" + std::to_string(results);
  out += " | " + matcher.ToString();
  out += " | prune_checks=" + std::to_string(prune_checks);
  out += " prunes=" + std::to_string(prunes);
  out += " matches_enumerated=" + std::to_string(matches_enumerated);
  out += " enumeration_cutoffs=" + std::to_string(enumeration_cutoffs);
  out += "\n  processing_ns: " + event_processing_ns.Summary();
  out += "\n  emission_delay_us: " + emission_delay_us.Summary();
  return out;
}

std::string QueryMetrics::ToJson() const {
  std::string out = "{";
  out += "\"events\":" + std::to_string(events);
  out += ",\"matches\":" + std::to_string(matches);
  out += ",\"results\":" + std::to_string(results);
  out += ",\"prune_checks\":" + std::to_string(prune_checks);
  out += ",\"prunes\":" + std::to_string(prunes);
  out += ",\"matches_enumerated\":" + std::to_string(matches_enumerated);
  out += ",\"enumeration_cutoffs\":" + std::to_string(enumeration_cutoffs);
  out += ",\"matcher\":" + MatcherJson(matcher);
  out += ",\"processing_ns\":" + event_processing_ns.ToJson();
  out += ",\"emission_delay_us\":" + emission_delay_us.ToJson();
  out += "}";
  return out;
}

std::string ShardStats::ToString() const {
  std::string out;
  out += "events=" + std::to_string(events);
  out += " matches=" + std::to_string(matches);
  out += " barriers=" + std::to_string(barriers);
  out += " batches=" + std::to_string(batches_published);
  out += " queue_high_water=" + std::to_string(queue_high_water);
  out += " enqueue_stalls=" + std::to_string(enqueue_stalls);
  out += " stall_us=" + std::to_string(stall_us);
  out += " stalls_tripped=" + std::to_string(stalls_tripped);
  return out;
}

std::string ShardStats::ToJson() const {
  std::string out = "{";
  out += "\"events\":" + std::to_string(events);
  out += ",\"matches\":" + std::to_string(matches);
  out += ",\"barriers\":" + std::to_string(barriers);
  out += ",\"batches_published\":" + std::to_string(batches_published);
  out += ",\"queue_high_water\":" + std::to_string(queue_high_water);
  out += ",\"enqueue_stalls\":" + std::to_string(enqueue_stalls);
  out += ",\"stall_us\":" + std::to_string(stall_us);
  out += ",\"stalls_tripped\":" + std::to_string(stalls_tripped);
  out += "}";
  return out;
}

std::string SharingStats::ToString() const {
  std::string out;
  out += "shared_eval=" + std::string(shared_eval ? "on" : "off");
  out += " queries_deduped=" + std::to_string(queries_deduped);
  out += " live_templates=" + std::to_string(live_templates);
  out += " predindex_probes=" + std::to_string(predindex_probes);
  out += " predindex_candidates=" + std::to_string(predindex_candidates);
  out += " bytecode_compiled_preds=" + std::to_string(bytecode_compiled_preds);
  out += " shared_window_buffers=" + std::to_string(shared_window_buffers);
  return out;
}

std::string SharingStats::ToJson() const {
  std::string out = "{";
  out += "\"shared_eval\":" + std::string(shared_eval ? "true" : "false");
  out += ",\"queries_deduped\":" + std::to_string(queries_deduped);
  out += ",\"live_templates\":" + std::to_string(live_templates);
  out += ",\"predindex_probes\":" + std::to_string(predindex_probes);
  out += ",\"predindex_candidates\":" + std::to_string(predindex_candidates);
  out += ",\"bytecode_compiled_preds\":" +
         std::to_string(bytecode_compiled_preds);
  out += ",\"shared_window_buffers\":" + std::to_string(shared_window_buffers);
  out += "}";
  return out;
}

std::string DurabilityStats::ToString() const {
  std::string out;
  out += "checkpoints_written=" + std::to_string(checkpoints_written);
  out += " checkpoint_bytes=" + std::to_string(checkpoint_bytes);
  out += " wal_records_appended=" + std::to_string(wal_records_appended);
  out += " recovery_events_replayed=" + std::to_string(recovery_events_replayed);
  return out;
}

std::string DurabilityStats::ToJson() const {
  std::string out = "{";
  out += "\"checkpoints_written\":" + std::to_string(checkpoints_written);
  out += ",\"checkpoint_bytes\":" + std::to_string(checkpoint_bytes);
  out += ",\"wal_records_appended\":" + std::to_string(wal_records_appended);
  out += ",\"recovery_events_replayed\":" +
         std::to_string(recovery_events_replayed);
  out += "}";
  return out;
}

std::string MergeStats::ToString() const {
  return "windows_merged=" + std::to_string(windows_merged) +
         " results_emitted=" + std::to_string(results_emitted);
}

std::string MergeStats::ToJson() const {
  return "{\"windows_merged\":" + std::to_string(windows_merged) +
         ",\"results_emitted\":" + std::to_string(results_emitted) + "}";
}

ShardStats MetricsCell::Snapshot() const {
  ShardStats s;
  s.events = events.Load();
  s.matches = matches.Load();
  s.barriers = barriers.Load();
  s.batches_published = batches_published.Load();
  s.queue_high_water = static_cast<size_t>(queue_high_water.Load());
  s.enqueue_stalls = enqueue_stalls.Load();
  s.stall_us = stall_us.Load();
  s.stalls_tripped = stalls_tripped.Load();
  return s;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  out += "events_ingested=" + std::to_string(events_ingested);
  out += " events_quarantined=" + std::to_string(events_quarantined);
  out += " events_reordered=" + std::to_string(reorder.events_reordered);
  out += " events_late_dropped=" + std::to_string(reorder.events_late_dropped);
  out += " events_clamped=" + std::to_string(reorder.events_clamped);
  out += " reorder_buffer_peak=" + std::to_string(reorder.reorder_buffer_peak);
  out += " num_shards=" + std::to_string(num_shards);
  out += "\nsharing: " + sharing.ToString();
  out += "\ndurability: " + durability.ToString();
  for (const QueryEntry& q : queries) {
    out += "\nquery " + q.name + ": " + q.metrics.ToString();
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    out += "\nshard " + std::to_string(s) + ": " + shards[s].ToString();
  }
  if (!shards.empty()) out += "\nmerge: " + merge.ToString();
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  out += "\"events_ingested\":" + std::to_string(events_ingested);
  out += ",\"events_quarantined\":" + std::to_string(events_quarantined);
  out += ",\"reorder\":{";
  out += "\"events_reordered\":" + std::to_string(reorder.events_reordered);
  out += ",\"events_late_dropped\":" + std::to_string(reorder.events_late_dropped);
  out += ",\"events_clamped\":" + std::to_string(reorder.events_clamped);
  out += ",\"reorder_buffer_peak\":" + std::to_string(reorder.reorder_buffer_peak);
  out += "}";
  out += ",\"num_shards\":" + std::to_string(num_shards);
  out += ",\"queries\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(queries[i].name) +
           "\",\"metrics\":" + queries[i].metrics.ToJson() + "}";
  }
  out += "],\"shards\":[";
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out += ",";
    out += shards[i].ToJson();
  }
  out += "],\"merge\":" + merge.ToJson();
  out += ",\"sharing\":" + sharing.ToJson();
  out += ",\"durability\":" + durability.ToJson();
  out += "}";
  return out;
}

}  // namespace cepr
