#ifndef CEPR_RUNTIME_METRICS_H_
#define CEPR_RUNTIME_METRICS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "engine/matcher.h"
#include "runtime/reorder.h"

namespace cepr {

/// Per-query runtime metrics, maintained by RunningQuery (inline backend) or
/// aggregated across shards (shard backend) and read by the monitor
/// example, tests and benchmarks. Plain-value snapshot type.
struct QueryMetrics {
  /// Events routed to this query.
  uint64_t events = 0;
  /// Matches detected (before ranking).
  uint64_t matches = 0;
  /// Ranked results delivered to the sink.
  uint64_t results = 0;
  /// Wall-clock nanoseconds spent inside OnEvent, per event.
  Histogram event_processing_ns;
  /// Event-time delay between a match's last event and its emission point
  /// (microseconds); 0 for eager emission, up to a window span for
  /// buffered emission. On the shard backend this is recorded at the
  /// shard-local emission point, before the merge stage cuts to LIMIT.
  Histogram emission_delay_us;
  /// Snapshot of the matcher counters (runs created/pruned/...).
  MatcherStats matcher;
  /// Pruner instrumentation (0 when pruning is off).
  uint64_t prune_checks = 0;
  uint64_t prunes = 0;
  /// Lazy-DAG enumeration instrumentation (0 outside dag mode): matches
  /// the best-first enumerator materialized at window closes, and frontier
  /// cutoffs (enumeration walks abandoned once every remaining score bound
  /// fell strictly below the k-th threshold).
  uint64_t matches_enumerated = 0;
  uint64_t enumeration_cutoffs = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

/// Plain-value snapshot of one worker shard's counters. Safe to take at any
/// time via MetricsCell::Snapshot(): each counter is exact at some recent
/// instant, counters are only approximately consistent with each other.
struct ShardStats {
  /// Event messages processed by this shard (across all queries).
  uint64_t events = 0;
  /// Matches detected on this shard.
  uint64_t matches = 0;
  /// Window-barrier messages processed.
  uint64_t barriers = 0;
  /// Result batches published to the merge stage (one per window a shard
  /// closed with results).
  uint64_t batches_published = 0;
  /// Peak ingest-queue occupancy observed by the router (backpressure
  /// early-warning: capacity means stalls).
  size_t queue_high_water = 0;
  /// Push attempts that found the queue full (each is one producer
  /// yield/park cycle).
  uint64_t enqueue_stalls = 0;
  /// Cumulative microseconds the ingest thread spent waiting on this
  /// shard's full ring.
  uint64_t stall_us = 0;
  /// Times the stall budget tripped on this shard (Push failed with
  /// kUnavailable because the shard looked dead/wedged).
  uint64_t stalls_tripped = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

/// Counters of the shared multi-query evaluation layer (docs/MULTIQUERY.md).
/// All zeros when shared evaluation is disabled.
struct SharingStats {
  /// Whether the engine routed events through the shared layer. False
  /// under `shared_eval = false` and when fault injection degraded the
  /// engine to full per-query visits.
  bool shared_eval = false;
  /// Query registrations that reused an already-interned NFA template
  /// (same canonical signature, different constants/k/partition slots).
  uint64_t queries_deduped = 0;
  /// Distinct live NFA templates across all registered queries.
  uint64_t live_templates = 0;
  /// Predicate-index probes (one per routed event on an indexed stream)
  /// and the total candidate queries those probes produced. candidates /
  /// probes = average fan-out per event; compare with the resident query
  /// count to see what the index saves.
  uint64_t predindex_probes = 0;
  uint64_t predindex_candidates = 0;
  /// Entry/matcher predicates the compiler lowered to flat bytecode across
  /// all registered queries (the VM hot path; docs/ARCHITECTURE.md).
  uint64_t bytecode_compiled_preds = 0;
  /// Live shared window-boundary trackers (one per (stream, window-scheme)
  /// group of queries whose report windows close at coincident events).
  uint64_t shared_window_buffers = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

/// Counters of the durability layer (runtime/checkpoint.* + runtime/wal.*).
/// All zeros until a WAL is opened or a checkpoint is written.
struct DurabilityStats {
  /// Snapshots successfully written (temp + fsync + rename completed).
  uint64_t checkpoints_written = 0;
  /// Bytes of the most recent successfully written snapshot.
  uint64_t checkpoint_bytes = 0;
  /// Event/flush records appended to the write-ahead journal.
  uint64_t wal_records_appended = 0;
  /// Events re-ingested from the journal during the last Restore().
  uint64_t recovery_events_replayed = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

/// Engine-wide counters of the shard backend's merge stage.
struct MergeStats {
  /// Report windows combined across shards.
  uint64_t windows_merged = 0;
  /// Results delivered to sinks after merging.
  uint64_t results_emitted = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

/// Live per-shard metrics cell: the write side of the monitoring subsystem.
///
/// Scalar counters are single-writer relaxed atomics (common/counters.h):
/// the shard thread owns events/matches/barriers/batches_published, the
/// ingest (router) thread owns queue_high_water/enqueue_stalls. Either side
/// may be read from any thread at any time without synchronization.
///
/// The per-query latency histograms are recorded thread-locally by the
/// owning shard thread and guarded by `mu` so snapshotters can copy them
/// while the stream is running; the lock is uncontended except during a
/// poll.
struct MetricsCell {
  // -- shard-thread-written --------------------------------------------------
  RelaxedCounter events;
  RelaxedCounter matches;
  RelaxedCounter barriers;
  RelaxedCounter batches_published;
  // -- ingest/router-thread-written -----------------------------------------
  RelaxedMax queue_high_water;
  RelaxedCounter enqueue_stalls;
  RelaxedCounter stall_us;
  RelaxedCounter stalls_tripped;

  /// Per-query wall-clock/event-time distributions (indexed by query id,
  /// sized before the shard thread starts).
  struct Timings {
    Histogram processing_ns;
    Histogram emission_delay_us;
  };
  mutable std::mutex mu;
  std::vector<Timings> timings;

  /// Scalar counters only; histograms are merged by the engine's snapshot
  /// path under `mu`.
  ShardStats Snapshot() const;
};

/// One coherent view of an engine's counters, taken by Engine::Snapshot().
/// On the shard backend it may be taken from a monitor thread while the
/// ingest and shard threads are running: every counter is exact at some
/// instant during the call (per-counter atomic), while relations *between*
/// counters (e.g. shard events vs. query events) are approximately
/// consistent and become exact once Finish() has returned.
struct MetricsSnapshot {
  /// Total events the engine accepted.
  uint64_t events_ingested = 0;
  /// Events dropped at ingest under FaultPolicy::kSkipAndCount (batch
  /// entries that failed validation or hit a fail-point). Matcher-level
  /// quarantines live in each query's MatcherStats.
  uint64_t events_quarantined = 0;
  /// Out-of-order ingest counters, aggregated across every stream's
  /// reorder buffer (counts summed; reorder_buffer_peak is the deepest any
  /// single stream's buffer got). See runtime/reorder.h.
  ReorderStats reorder;
  /// Worker shard count (1 for the inline backend).
  size_t num_shards = 1;
  /// Per-query aggregated metrics, in registration order.
  struct QueryEntry {
    std::string name;
    QueryMetrics metrics;
  };
  std::vector<QueryEntry> queries;
  /// Per-shard counters (empty for the inline backend).
  std::vector<ShardStats> shards;
  /// Merge-stage counters (zeros for the inline backend).
  MergeStats merge;
  /// Shared multi-query evaluation counters (zeros when disabled).
  SharingStats sharing;
  /// Durability-layer counters (zeros until checkpoint/WAL use).
  DurabilityStats durability;

  /// Multi-line human-readable dump.
  std::string ToString() const;
  /// Single JSON object, the wire format for external monitors:
  /// {"events_ingested":N,"num_shards":N,"queries":[{"name":...},...],
  ///  "shards":[...],"merge":{...}}.
  std::string ToJson() const;
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_METRICS_H_
