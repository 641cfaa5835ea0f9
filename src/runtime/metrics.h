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

/// Counters of one worker shard: X(name, kind, merge) entries (see
/// "Counter families" in common/counters.h).
#define CEPR_SHARD_COUNTERS(X)                                                \
  /* Event messages processed by this shard (across all queries). */          \
  X(events, kCount, kSum)                                                     \
  /* Matches detected on this shard. */                                       \
  X(matches, kCount, kSum)                                                    \
  /* Window-barrier messages processed. */                                    \
  X(barriers, kCount, kSum)                                                   \
  /* Result batches published to the merge stage (one per window a shard */   \
  /* closed with results). */                                                 \
  X(batches_published, kCount, kSum)                                          \
  /* Peak ingest-queue occupancy seen by the router (backpressure */          \
  /* early warning: capacity means stalls). */                                \
  X(queue_high_water, kMax, kMax)                                             \
  /* Push attempts that found the queue full (each is one producer */         \
  /* yield/park cycle). */                                                    \
  X(enqueue_stalls, kCount, kSum)                                             \
  /* Cumulative microseconds the ingest thread waited on the full ring. */    \
  X(stall_us, kCount, kSum)                                                   \
  /* Times the stall budget tripped on this shard (Push failed with */        \
  /* kUnavailable because the shard looked dead or wedged). */                \
  X(stalls_tripped, kCount, kSum)

/// Plain-value snapshot of one worker shard's counters. Safe to take at any
/// time via MetricsCell::Snapshot(): each counter is exact at some recent
/// instant, counters are only approximately consistent with each other.
struct ShardStats : CounterValues<ShardStats> {
  CEPR_COUNTER_VALUES(ShardStats, CEPR_SHARD_COUNTERS)
};

/// Counters of the shared multi-query evaluation layer
/// (docs/MULTIQUERY.md): X(name, kind, merge) entries.
#define CEPR_SHARING_COUNTERS(X)                                              \
  /* Query registrations that reused an already-interned NFA template */      \
  /* (same canonical signature, different constants/k/partition slots). */    \
  X(queries_deduped, kCount, kSum)                                            \
  /* Distinct live NFA templates across all registered queries. */            \
  X(live_templates, kCount, kSum)                                             \
  /* Predicate-index probes (one per routed event on an indexed stream) */    \
  /* and the candidate queries they produced: candidates / probes is the */   \
  /* average fan-out per event. */                                            \
  X(predindex_probes, kCount, kSum)                                           \
  X(predindex_candidates, kCount, kSum)                                       \
  /* Entry/matcher predicates lowered to flat bytecode across all */          \
  /* registered queries (the VM hot path; docs/ARCHITECTURE.md). */           \
  X(bytecode_compiled_preds, kCount, kSum)                                    \
  /* Live shared window-boundary trackers (one per (stream, window-scheme) */ \
  /* group of queries whose report windows close at coincident events). */    \
  X(shared_window_buffers, kCount, kSum)

/// Shared-layer counters. All zeros when shared evaluation is disabled.
/// Assembled by Engine::Snapshot() from several sources, so it has no live
/// twin.
struct SharingStats {
  /// Whether the engine routed events through the shared layer. False
  /// under `shared_eval = false` and when fault injection degraded the
  /// engine to full per-query visits.
  bool shared_eval = false;
  CEPR_COUNTER_VALUES(SharingStats, CEPR_SHARING_COUNTERS)

  std::string ToString() const;
  std::string ToJson() const;
};

/// Counters of the durability layer (runtime/checkpoint.* + runtime/wal.*):
/// X(name, kind, merge) entries.
#define CEPR_DURABILITY_COUNTERS(X)                                           \
  /* Snapshots successfully written (temp + fsync + rename completed). */     \
  X(checkpoints_written, kCount, kSum)                                        \
  /* Bytes of the most recent successfully written snapshot. */               \
  X(checkpoint_bytes, kCount, kSum)                                           \
  /* Event/flush records appended to the write-ahead journal. */              \
  X(wal_records_appended, kCount, kSum)                                       \
  /* Events re-ingested from the journal during the last Restore(). */        \
  X(recovery_events_replayed, kCount, kSum)

/// Durability counters. All zeros until a WAL is opened or a checkpoint is
/// written.
struct DurabilityStats : CounterValues<DurabilityStats> {
  CEPR_COUNTER_VALUES(DurabilityStats, CEPR_DURABILITY_COUNTERS)
};

/// Live durability counters (Engine's ingest thread writes; monitor threads
/// may read Snapshot() while it checkpoints).
struct AtomicDurabilityStats {
  CEPR_LIVE_COUNTERS(DurabilityStats, CEPR_DURABILITY_COUNTERS)
};

/// Engine-wide counters of the shard backend's merge stage: X(name, kind,
/// merge) entries.
#define CEPR_MERGE_COUNTERS(X)                                                \
  /* Report windows combined across shards. */                                \
  X(windows_merged, kCount, kSum)                                             \
  /* Results delivered to sinks after merging. */                             \
  X(results_emitted, kCount, kSum)

/// Merge-stage counters (zeros for the inline backend).
struct MergeStats : CounterValues<MergeStats> {
  CEPR_COUNTER_VALUES(MergeStats, CEPR_MERGE_COUNTERS)
};

/// Live merge-stage counters (written by the ingest thread).
struct AtomicMergeStats {
  CEPR_LIVE_COUNTERS(MergeStats, CEPR_MERGE_COUNTERS)
};

/// Live per-shard metrics cell: the write side of the monitoring subsystem.
///
/// Scalar counters are single-writer relaxed atomics (common/counters.h):
/// the shard thread owns events/matches/barriers/batches_published, the
/// ingest (router) thread owns the rest. Either side may be read from any
/// thread at any time without synchronization; Snapshot() reads the
/// scalars only, the engine's snapshot path merges the histograms under
/// `mu`.
///
/// The per-query latency histograms are recorded thread-locally by the
/// owning shard thread and guarded by `mu` so snapshotters can copy them
/// while the stream is running; the lock is uncontended except during a
/// poll.
struct MetricsCell {
  CEPR_LIVE_COUNTERS(ShardStats, CEPR_SHARD_COUNTERS)

  /// Per-query wall-clock/event-time distributions (indexed by query id,
  /// sized before the shard thread starts).
  struct Timings {
    Histogram processing_ns;
    Histogram emission_delay_us;
  };
  mutable std::mutex mu;
  std::vector<Timings> timings;
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
