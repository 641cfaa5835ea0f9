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
  out += ",\"matcher\":" + matcher.ToJson();
  out += ",\"processing_ns\":" + event_processing_ns.ToJson();
  out += ",\"emission_delay_us\":" + emission_delay_us.ToJson();
  out += "}";
  return out;
}

std::string SharingStats::ToString() const {
  return std::string("shared_eval=") + (shared_eval ? "on " : "off ") +
         CounterTextFields(*this);
}

std::string SharingStats::ToJson() const {
  return std::string("{\"shared_eval\":") + (shared_eval ? "true," : "false,") +
         CounterJsonFields(*this) + "}";
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  out += "events_ingested=" + std::to_string(events_ingested);
  out += " events_quarantined=" + std::to_string(events_quarantined);
  out += " " + reorder.ToString();
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
  out += ",\"reorder\":" + reorder.ToJson();
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
