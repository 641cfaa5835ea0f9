#ifndef CEPR_RUNTIME_SHARDED_ENGINE_H_
#define CEPR_RUNTIME_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/spsc_queue.h"
#include "engine/predicate_index.h"
#include "engine/shard_router.h"
#include "plan/signature.h"
#include "rank/merge.h"
#include "runtime/checkpoint.h"
#include "runtime/metrics.h"
#include "runtime/query.h"
#include "runtime/reorder.h"
#include "runtime/wal.h"

namespace cepr {

/// Knobs for the sharded execution mode.
struct ShardedEngineOptions {
  /// Worker shard count; 0 = std::thread::hardware_concurrency().
  size_t num_shards = 0;
  /// Per-shard ingest ring capacity (rounded up to a power of two). A full
  /// ring backpressures the ingest thread (bounded wait; see
  /// enqueue_stall_budget_ms).
  size_t queue_capacity = 4096;
  /// Same semantics as the EngineOptions event-time fields: the per-stream
  /// lateness bound and late policy applied by the reorder buffer on the
  /// ingest thread, *before* the shard router — every shard sees the same
  /// released order, so serial/sharded equivalence holds under disorder.
  Timestamp max_lateness_micros = 0;
  LatePolicy late_policy = LatePolicy::kReject;
  /// Longest one enqueue may wait on a full shard ring before giving up:
  /// past the budget the shard is presumed dead/wedged and Push fails with
  /// kUnavailable naming it (counted in ShardStats::stalls_tripped).
  /// <= 0 waits forever (the legacy unbounded yield-spin).
  int64_t enqueue_stall_budget_ms = 2000;

  // -- Overload protection / fault containment -------------------------------
  // Same semantics as the EngineOptions fields (see runtime/engine.h).
  // max_total_runs is split evenly across shards: each shard enforces
  // max(1, max_total_runs / num_shards) over its own cells, so the
  // engine-wide total stays within ~one shard's share of the cap.

  size_t max_runs_per_partition = 0;
  size_t max_total_runs = 0;
  ShedPolicy shed_policy = ShedPolicy::kShedOldest;
  FaultPolicy fault_policy = FaultPolicy::kFailFast;
  const FaultInjector* fault_injector = nullptr;  // not owned; may be null

  /// Shared multi-query evaluation (docs/MULTIQUERY.md): NFA templates are
  /// interned per canonical signature and the router probes each stream's
  /// entry-predicate index once per event, tagging the per-query messages
  /// so shards skip matcher visits that are provably no-ops. Per-query
  /// ranked output is bit-identical either way; `false` is the ablation
  /// switch. Degraded automatically (full visits) while any fault injector
  /// is armed, so injected schedules fire at per-query-path positions.
  /// Note the router still enqueues one message per (event, query) —
  /// ordinal and barrier bookkeeping is per query — so ingest-side cost
  /// stays O(queries) per event; the saving is shard-side matcher work.
  bool shared_eval = true;
};

/// Parallel counterpart of Engine: PARTITION BY keys are hashed across N
/// worker shards, each owning its partitions' matcher runs, report windows
/// and pruning state, fed through bounded SPSC rings. Ranked emission stays
/// exactly equivalent to the single-threaded engine: every shard keeps a
/// window-local top-k, and when all shards have moved past a report window
/// (tracked by router-broadcast window barriers) the per-shard ordered
/// lists are k-way merged under the deterministic (score, detecting-event
/// sequence, matcher id) order and cut to LIMIT — byte-identical to the
/// serial result (tested property; see docs/ARCHITECTURE.md).
///
/// Threading contract: one ingest thread drives ExecuteDdl / RegisterQuery
/// / Push / Finish (never concurrently); sinks are invoked on that ingest
/// thread, so they need no synchronization. Shard threads never touch user
/// code. The introspection block (Snapshot / shard_stats / merge_stats /
/// GetQueryMetrics / events_ingested) may additionally run on any number of
/// monitor threads concurrently with ingest — see runtime/metrics.h for the
/// consistency model.
///
/// Restrictions versus Engine (rejected at RegisterQuery):
///  * EMIT ON COMPLETE (eager provisional emission is inherently
///    order-dependent across partitions — use a buffered policy);
///  * EMIT INTO derived streams (re-ingestion would create cross-shard
///    feedback);
///  * queries must be registered before the first Push.
class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // -- Streams (pre-start, ingest thread) -----------------------------------

  Status ExecuteDdl(std::string_view ddl_text);
  Status RegisterSchema(SchemaPtr schema);
  Result<SchemaPtr> GetSchema(std::string_view stream_name) const;

  /// Overrides one stream's disorder tolerance, same contract as
  /// Engine::ConfigureStreamIngest: before the stream's first event only.
  Status ConfigureStreamIngest(std::string_view stream_name,
                               ReorderConfig config);

  // -- Queries (pre-start, ingest thread) -----------------------------------

  /// Compiles and registers `query_text`. `sink` may be null and must
  /// outlive the engine otherwise; it is called on the ingest thread.
  Status RegisterQuery(std::string name, std::string_view query_text,
                       const QueryOptions& options, Sink* sink);
  std::vector<std::string> QueryNames() const;

  // -- Ingest (single thread) -----------------------------------------------

  /// Validates, stamps and routes one event to its owning shard per query.
  /// Merged results that became complete are delivered to sinks inline.
  /// Starts the worker threads on the first call. Fails with kUnavailable
  /// when a shard's ring stays full past the stall budget (shard presumed
  /// wedged), and surfaces the first shard-side fault under
  /// FaultPolicy::kFailFast (see first_fault()).
  Status Push(Event event);
  /// One Push per event, with the same partial-failure semantics as
  /// Engine::PushAll: the Status names the failing index; under
  /// FaultPolicy::kSkipAndCount failing events are skipped and counted,
  /// except a tripped stall budget (kUnavailable), which always surfaces.
  Status PushAll(std::vector<Event> events);

  /// Drains every stream's reorder buffer to the shards in release order
  /// (same contract as Engine::Flush). Ingest thread only.
  Status Flush();

  /// End of stream: drains the reorder buffers, flushes every shard, joins
  /// the workers, merges and delivers all remaining windows. The engine is
  /// terminal afterwards (further Push calls fail).
  void Finish();

  // -- Durability (ingest thread) -------------------------------------------

  /// Opens (or resumes) a write-ahead journal, same contract as
  /// Engine::OpenWal: every accepted top-level arrival and every explicit
  /// Flush is journaled before it mutates engine state.
  Status OpenWal(const std::string& path);

  /// Forces journaled records to stable storage. No-op without an open WAL.
  Status SyncWal();

  /// Writes a consistent snapshot of the full engine state to `path`
  /// atomically. The cut is a quiesce point: every shard is drained to the
  /// end of its ring (a window-barrier-style round trip), so the snapshot
  /// captures each (shard, query) cell after exactly the events the ingest
  /// thread has routed — the same cut a window barrier observes.
  Status Checkpoint(const std::string& path);

  /// Rebuilds this engine from a snapshot plus optional WAL tail, same
  /// contract as Engine::Restore. The engine must be pristine and
  /// constructed with the SAME shard count as the snapshot (the per-shard
  /// run state cannot be re-hashed; kInvalidArgument names the counts
  /// otherwise). Worker threads are respawned after the cell state loads.
  Status Restore(const std::string& snapshot_path, const std::string& wal_path,
                 const SinkResolver& resolve);

  /// Durability counters (folded into Snapshot().durability). Safe from
  /// any thread (relaxed atomics — a monitor may poll mid-checkpoint).
  DurabilityStats durability() const {
    DurabilityStats d;
    d.checkpoints_written = ckpt_written_.Load();
    d.checkpoint_bytes = ckpt_bytes_.Load();
    d.wal_records_appended = wal_appended_.Load();
    d.recovery_events_replayed = replayed_.Load();
    return d;
  }

  // -- Introspection --------------------------------------------------------
  //
  // Every reader below is safe to call from ANY thread — including a
  // monitor thread polling while the ingest and shard threads are running —
  // once query registration is done. Each counter is exact at some instant
  // during the call; relations between counters are approximately
  // consistent mid-run and exact once Finish() has returned.

  size_t num_shards() const { return num_shards_; }
  uint64_t events_ingested() const { return events_ingested_.Load(); }
  /// Events dropped at ingest under FaultPolicy::kSkipAndCount.
  uint64_t events_quarantined() const { return events_quarantined_.Load(); }

  /// The first shard-side runtime fault (OK while none): under kFailFast
  /// the faulted engine drops further events and every Push returns this.
  Status first_fault() const;

  /// Per-shard counter snapshot.
  std::vector<ShardStats> shard_stats() const;
  MergeStats merge_stats() const;

  /// Aggregated per-query metrics (counters and latency histograms summed
  /// across shards).
  Result<QueryMetrics> GetQueryMetrics(std::string_view name) const;

  /// One engine-wide snapshot: every query, every shard, the merge stage.
  /// The live-monitoring entry point (see docs/OPERATIONS.md).
  MetricsSnapshot Snapshot() const;

  /// Shared-layer introspection (tests, monitor), same contract as
  /// Engine::template_registry / Engine::shared_eval_active.
  const TemplateRegistry& template_registry() const {
    return template_registry_;
  }
  /// True while the router probes predicate indexes and tags candidates
  /// (shared_eval on and no fault injector armed anywhere).
  bool shared_eval_active() const {
    return options_.shared_eval && options_.fault_injector == nullptr &&
           !query_injector_;
  }

 private:
  struct Message {
    /// kQuiesce asks the shard to acknowledge that everything enqueued
    /// before it has been fully processed (checkpoint cut); `ordinal`
    /// carries the quiesce generation.
    enum class Kind : uint8_t { kEvent, kBarrier, kFinish, kQuiesce };
    Kind kind = Kind::kEvent;
    uint32_t query = 0;
    EventPtr event;        // kEvent
    uint64_t ordinal = 0;  // kEvent / kBarrier: per-query global ordinal;
                           // kQuiesce: generation
    Timestamp ts = 0;      // kEvent / kBarrier
    /// kEvent: router-side predicate-index verdict. False means the event
    /// cannot begin a run for this query, so the shard may skip the
    /// matcher when the event's partition holds no live runs.
    bool candidate = true;
  };

  /// One (shard, query) execution cell, owned by the shard thread. The
  /// matcher/pruner counters inside are single-writer atomics, so the
  /// snapshot path may read them while the shard is matching.
  struct QueryCell {
    std::unique_ptr<Emitter> emitter;
    std::unique_ptr<PartitionedMatcher> matcher;
  };

  struct Shard {
    size_t index = 0;
    std::unique_ptr<SpscQueue<Message>> queue;
    std::thread thread;
    std::vector<QueryCell> cells;  // per query
    /// Shard-local live-run counter (this shard's slice of the
    /// max_total_runs budget); shard-thread-only.
    size_t live_runs = 0;

    /// Results of closed windows, per query, window-ordered; guarded by
    /// `mu`. The shard appends on window close, the router moves them out.
    std::mutex mu;
    std::vector<std::deque<RankedResult>> published;
    /// Per query: every window id < this value is closed & published
    /// (store-release after publishing, load-acquire by the router).
    std::unique_ptr<std::atomic<int64_t>[]> acked_window;

    /// Consumer parking: the shard sleeps (bounded wait) when its ring is
    /// empty; the router nudges it on push.
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<bool> parked{false};

    /// Highest quiesce generation acknowledged (store-release after the
    /// shard processed everything enqueued before the kQuiesce message;
    /// acquire-load by the checkpointing ingest thread, which thereby
    /// observes every cell write the shard made).
    std::atomic<uint64_t> quiesced{0};

    /// Live counters + per-query latency histograms; shard-thread and
    /// router-side writers, snapshottable from any thread.
    MetricsCell metrics;
  };

  struct StreamState {
    SchemaPtr schema;
    uint64_t next_sequence = 0;
    /// Bounded out-of-order ingest buffer, applied on the ingest thread
    /// before the shard router. Non-movable (atomic counters): streams_
    /// entries are built in place with try_emplace.
    ReorderBuffer reorder;
    /// Entry-predicate index over this stream's queries, keyed by global
    /// query index (registration is pre-start, so indices are stable).
    /// Probed once per released event on the ingest thread.
    PredicateIndex index;
    std::vector<uint32_t> cand_scratch;  // ingest-thread probe scratch
  };

  struct QueryState {
    QueryState(std::string name_in, CompiledQueryPtr plan_in,
               const QueryOptions& options_in, Sink* sink_in,
               ShardRouter router_in, ReportWindowAssigner windows_in,
               ShardMergeOptions merge_in)
        : name(std::move(name_in)),
          plan(std::move(plan_in)),
          options(options_in),
          sink(sink_in),
          router(std::move(router_in)),
          windows(windows_in),
          merge(merge_in) {}

    std::string name;
    /// Original query text, kept so a checkpoint can re-register the query.
    std::string text;
    CompiledQueryPtr plan;
    QueryOptions options;
    Sink* sink = nullptr;
    ShardRouter router;
    ReportWindowAssigner windows;
    ShardMergeOptions merge;
    /// Interned NFA template (shared_eval only): refcount tracks query
    /// lifetime, equal pointers mean structurally shared plans.
    std::shared_ptr<const NfaTemplate> nfa_template;

    /// Events routed to this query; ingest-thread-written, snapshot-read.
    RelaxedCounter ordinal;
    int64_t current_window = 0;  // last window broadcast via barrier
    int64_t merged_upto = 0;     // windows < this delivered to the sink
    /// Per shard: published results pulled from the shard, not yet merged.
    std::vector<std::deque<RankedResult>> pending;
    /// Results handed to the sink; ingest-thread-written, snapshot-read.
    RelaxedCounter results_delivered;
  };

  void StartWorkers();
  /// StartWorkers is BuildShards + SpawnWorkers; Restore calls them
  /// separately so the restored cell state is loaded on the ingest thread
  /// between the two (the SPSC ring's release/acquire pair publishes those
  /// writes to the shard thread before its first message).
  void BuildShards();
  void SpawnWorkers();
  /// Checkpoint cut: enqueues a kQuiesce to every shard and waits until all
  /// acknowledge, so every previously routed message is fully processed and
  /// its cell writes are visible to the ingest thread. Fails with
  /// kUnavailable past the enqueue stall budget (wedged shard). No-op
  /// before the first Push or after Finish (joined threads happen-before).
  Status Quiesce();
  void ShardMain(size_t shard_index);
  /// Validation + reorder-buffer Offer shared by Push and PushAll: returns
  /// the owning stream with `released` filled in release order (empty for a
  /// buffered or late-dropped event), or the error Push would return.
  Result<StreamState*> OfferEvent(Event event, std::vector<Event>* released);
  /// Stamps one buffer-released event with the stream's sequence number
  /// and routes it: per-query ordinal, window barriers, shard enqueue,
  /// opportunistic merge drain (ingest thread).
  Status RouteReleased(StreamState& state, Event event);
  /// Blocking enqueue with backpressure accounting and consumer nudge.
  /// Fails with kUnavailable once the stall budget is spent on a full ring.
  Status Enqueue(Shard* shard, Message msg);
  /// Records the first shard-side fault and flips the engine into the
  /// faulted state (shard threads; first writer wins).
  void RecordFault(const Status& status);
  /// Closes windows the shard's emitter has moved past and publishes the
  /// results (shard thread).
  void PublishResults(Shard* shard, uint32_t query,
                      std::vector<RankedResult> results);
  /// Records one event's processing time (skipped when negative: barriers
  /// and finish flushes) and the emission delays of `emitted` into the
  /// shard's metrics cell (shard thread).
  void RecordTimings(Shard* shard, uint32_t query, int64_t processing_ns,
                     const std::vector<RankedResult>& emitted);
  /// Merges and delivers every window all shards have moved past; `final`
  /// ignores acks (only valid once workers have joined).
  void DrainReady(QueryState* q, uint32_t query_index, bool final);
  /// Sums matcher/pruner counters and latency histograms across shards.
  QueryMetrics AggregateQueryMetrics(uint32_t query_index) const;
  /// True once StartWorkers has fully populated shards_ (acquire-load, so
  /// snapshot readers may walk the shard vector).
  bool WorkersStarted() const {
    return started_.load(std::memory_order_acquire);
  }

  ShardedEngineOptions options_;
  size_t num_shards_;
  std::map<std::string, StreamState, std::less<>> streams_;
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::map<std::string, uint32_t, std::less<>> query_index_;
  /// Shared evaluation layer (pre-start writes, any-thread reads).
  TemplateRegistry template_registry_;
  RelaxedCounter queries_deduped_;
  /// True when some registered query arms its own fault injector: the
  /// router degrades to full per-query visits so injected schedules fire
  /// at the exact positions the unshared path produces.
  bool query_injector_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set (release) after shards_ and their threads exist; snapshot readers
  /// gate on it before touching shard state.
  std::atomic<bool> started_{false};
  bool finished_ = false;
  /// Emergency-stop flag: shard threads exit their loop (and any injected
  /// stall) as soon as they see it. Set by the destructor, and by Finish()
  /// when a wedged shard will not accept its kFinish message.
  std::atomic<bool> abort_{false};
  /// Fault containment under kFailFast: the first shard-side error, and an
  /// acquire-checked flag the ingest path reads per Push. Once faulted,
  /// shard threads drop further events (barriers still flow).
  mutable std::mutex fault_mu_;
  Status first_fault_;
  std::atomic<bool> faulted_{false};
  /// Ingest-thread-written, snapshot-read.
  RelaxedCounter events_ingested_;
  RelaxedCounter events_quarantined_;
  RelaxedCounter merge_windows_;
  RelaxedCounter merge_results_;

  // -- Durability state (ingest thread; counters snapshot-read) -------------
  /// Serializes the full engine state as one snapshot body. Workers must be
  /// quiesced (or never started / joined) when called.
  void SaveBody(BinWriter* w) const;
  Status LoadBody(BinReader* r, const SinkResolver& resolve,
                  uint64_t* wal_cut);
  Status ReplayWal(const std::string& wal_path, uint64_t skip,
                   const SinkResolver& resolve);

  std::unique_ptr<WalWriter> wal_;
  bool replaying_ = false;
  uint64_t checkpoint_attempts_ = 0;  // ckpt.kill_mid_write fault key
  uint64_t quiesce_generation_ = 0;
  /// Relaxed atomics (not a plain DurabilityStats): a monitor thread may
  /// read Snapshot().durability while the ingest thread checkpoints.
  RelaxedCounter ckpt_written_;
  RelaxedCounter ckpt_bytes_;
  RelaxedCounter wal_appended_;
  RelaxedCounter replayed_;
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_SHARDED_ENGINE_H_
