#ifndef CEPR_RUNTIME_ENGINE_H_
#define CEPR_RUNTIME_ENGINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/counters.h"
#include "engine/predicate_index.h"
#include "plan/signature.h"
#include "runtime/checkpoint.h"
#include "runtime/query.h"
#include "runtime/reorder.h"
#include "runtime/wal.h"

namespace cepr {

/// Engine-wide options.
struct EngineOptions {
  // -- Execution backend -----------------------------------------------------

  /// 0 runs every query inline on the calling thread. N > 0 hashes each
  /// query's PARTITION BY keys across N worker shards fed through bounded
  /// SPSC rings; per-shard top-k lists are k-way merged at report-window
  /// close, so ranked output is byte-identical to the inline backend. The
  /// shard backend refuses EMIT ON COMPLETE, EMIT INTO, registration after
  /// the first Push and RemoveQuery, and is terminal after Finish.
  size_t num_shards = 0;
  /// Shard backend: per-shard ingest ring capacity (rounded up to a power
  /// of two). A full ring backpressures the ingest thread.
  size_t queue_capacity = 4096;
  /// Shard backend: longest one enqueue may wait on a full shard ring.
  /// Past the budget the shard is presumed dead or wedged and Push fails
  /// with kUnavailable naming it (counted in ShardStats::stalls_tripped).
  /// <= 0 waits forever.
  int64_t enqueue_stall_budget_ms = 2000;

  // -- Event time / out-of-order ingest --------------------------------------

  /// How far (event-time microseconds) an event may arrive behind the
  /// highest timestamp seen on its stream and still be reordered into
  /// place by the per-stream reorder buffer (see runtime/reorder.h).
  /// 0 = strict in-order ingest, today's default. The buffer runs on the
  /// ingest thread before either backend, so every shard sees the same
  /// released order.
  Timestamp max_lateness_micros = 0;
  /// Fate of events that miss the lateness bound. kReject and
  /// kDropAndCount never mutate event time; kClamp rewrites it to the
  /// watermark.
  LatePolicy late_policy = LatePolicy::kReject;

  // -- Overload protection ---------------------------------------------------
  // Engine-wide caps overlaying each query's own MatcherOptions (see
  // MergeEngineCaps): caps combine to the smaller non-zero value, the
  // policies win when set to a non-default value. 0 = no engine-wide cap.

  /// Cap on live matcher runs per (query, partition).
  size_t max_runs_per_partition = 0;
  /// Cap on live matcher runs across every query and partition. The shard
  /// backend splits it evenly: each shard enforces
  /// max(1, max_total_runs / num_shards) over its own cells.
  size_t max_total_runs = 0;
  /// Which run to shed when a budget is full.
  ShedPolicy shed_policy = ShedPolicy::kShedOldest;

  // -- Fault containment -----------------------------------------------------

  /// What runtime faults (eval errors, poison events, failed batch
  /// entries) do to the stream: stop it, or quarantine-and-count.
  FaultPolicy fault_policy = FaultPolicy::kFailFast;
  /// Optional deterministic fault-injection harness (tests/bench); not
  /// owned, must outlive the engine.
  const FaultInjector* fault_injector = nullptr;

  // -- Shared multi-query evaluation ----------------------------------------

  /// Route events through the shared evaluation layer: NFA templates are
  /// interned per canonical signature, each stream's entry predicates are
  /// indexed so an event dispatches only to queries it can affect, and
  /// report-window boundaries are tracked once per (stream, window-scheme)
  /// group. Ranked output per query is bit-identical to the per-query path
  /// (docs/MULTIQUERY.md proves the skip conditions); `false` is the
  /// ablation switch that preserves the classic visit-every-query routing.
  /// Automatically degraded to full per-query visits while a fault injector
  /// is armed, so injected fault schedules fire at the exact event
  /// positions the per-query path would produce.
  bool shared_eval = true;
};

/// The CEPR system facade: stream registry, query registry, the ingest
/// path and durability, over an inline or a sharded execution backend
/// (EngineOptions::num_shards). Typical use:
///
///   Engine engine;
///   engine.ExecuteDdl("CREATE STREAM Stock (symbol STRING, price FLOAT)");
///   CollectSink sink;
///   engine.RegisterQuery("crash", kQueryText, QueryOptions{}, &sink);
///   for (const Event& e : events) engine.Push(e);
///   engine.Finish();
///
/// Threading contract: one ingest thread drives every mutating call (never
/// concurrently); sinks run on that thread. On the shard backend the
/// introspection block (Snapshot / shard_stats / merge_stats /
/// GetQueryMetrics / events_ingested / durability) may additionally run on
/// monitor threads once query registration is done — see runtime/metrics.h
/// for the consistency model.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // -- Streams ------------------------------------------------------------

  /// Executes a CREATE STREAM statement.
  Status ExecuteDdl(std::string_view ddl_text);

  /// Registers a pre-built schema.
  Status RegisterSchema(SchemaPtr schema);

  Result<SchemaPtr> GetSchema(std::string_view stream_name) const;
  std::vector<std::string> StreamNames() const;

  /// Overrides one stream's disorder tolerance (lateness bound + late
  /// policy), replacing the engine-wide default derived from
  /// EngineOptions. Must be called before the stream's first event
  /// (InvalidArgument otherwise) so the release frontier never changes
  /// mid-stream; NotFound if the stream is not registered.
  Status ConfigureStreamIngest(std::string_view stream_name,
                               ReorderConfig config);

  // -- Queries -------------------------------------------------------------

  /// Compiles `query_text` against its FROM stream and starts it. `sink`
  /// may be null (results dropped) and must outlive the query otherwise.
  /// Fails with AlreadyExists for duplicate names, and with the shard
  /// backend's capability errors (see EngineOptions::num_shards).
  Status RegisterQuery(std::string name, std::string_view query_text,
                       const QueryOptions& options, Sink* sink);

  /// Stops and removes a query (flushing it first). kUnimplemented on the
  /// shard backend, whose queries are fixed at start.
  Status RemoveQuery(std::string_view name);

  /// The query's inline pipeline; kUnimplemented on the shard backend,
  /// which keeps one cell per shard instead (use GetQueryMetrics).
  Result<const RunningQuery*> GetQuery(std::string_view name) const;
  std::vector<std::string> QueryNames() const;

  /// One query's metrics snapshot (shard backend: summed across shards).
  Result<QueryMetrics> GetQueryMetrics(std::string_view name) const;

  /// Engine-wide metrics snapshot: every query's counters and latency
  /// histograms, plus the shard and merge stages on the shard backend.
  MetricsSnapshot Snapshot() const;

  // -- Ingest ---------------------------------------------------------------

  /// Ingests one event: validates its schema is registered, offers it to
  /// the stream's reorder buffer, and routes every event the buffer
  /// releases — stamped with the per-stream sequence number at release —
  /// to every query on that stream. With the default zero lateness bound
  /// the buffer is a pass-through and this is the classic strict-order
  /// ingest path. The shard backend starts its workers on the first event,
  /// delivers merged results that became complete inline, fails with
  /// kUnavailable when a shard's ring stays full past the stall budget,
  /// and surfaces the first shard-side fault under kFailFast.
  Status Push(Event event);

  /// Drains every stream's reorder buffer, routing the resident events
  /// downstream in release order. After a flush, an arrival older than
  /// anything flushed is late. Finish() calls this; exposed for callers
  /// that need the buffered tail visible without ending the stream.
  Status Flush();

  /// Ingests a batch in order, one Push per event. On failure the Status
  /// names the failing index and the already-ingested prefix; under
  /// FaultPolicy::kSkipAndCount failing events are skipped (counted in
  /// events_quarantined) and the rest of the batch proceeds — except a
  /// tripped shard stall budget (kUnavailable), which always surfaces.
  /// A caller that feeds one batch of `batch_size` events in pieces passes
  /// each piece's `first_index` in it, so the failure names positions in
  /// the whole batch (by default `events` is the whole batch).
  Status PushAll(std::vector<Event> events, size_t first_index = 0,
                 size_t batch_size = 0);

  /// Signals end-of-stream: every query flushes its buffered windows. The
  /// shard backend also joins its workers and is terminal afterwards.
  void Finish();

  // -- Durability -----------------------------------------------------------

  /// Opens (or resumes) a write-ahead journal at `path`: every top-level
  /// arrival Push accepts — and every explicit Flush — is journaled before
  /// it mutates engine state, so a crash loses nothing past the last valid
  /// record. A pre-existing file is scanned and a torn tail truncated
  /// (crash mid-append); appending resumes after the last valid record.
  /// Derived-stream re-ingestion (EMIT INTO) is NOT journaled: replay
  /// regenerates it deterministically.
  Status OpenWal(const std::string& path);

  /// Forces journaled records to stable storage. No-op without an open WAL.
  Status SyncWal();

  /// Writes a consistent snapshot of the full engine state — streams,
  /// reorder buffers, queries with their live runs and ranking state,
  /// counters — to `path`, atomically (temp + fsync + rename). With an open
  /// WAL the snapshot records the journal position, so Restore replays only
  /// the records that arrived after this cut. The shard backend first
  /// drains every shard to the end of its ring, so the cut is exactly the
  /// events the ingest thread has routed.
  Status Checkpoint(const std::string& path);

  /// Rebuilds this engine from a snapshot, then replays the WAL tail past
  /// the snapshot's cut through the normal ingest path. Must be called on a
  /// pristine engine (no streams, no queries, nothing ingested) constructed
  /// with the snapshot's shard count (per-shard run state cannot be
  /// re-hashed; kInvalidArgument names both counts otherwise) and the
  /// caller's fault injector if one is wanted; `resolve` supplies each
  /// restored query's sink by name (see SinkResolver). Pass an empty
  /// `wal_path` to restore from the snapshot alone. On success the engine
  /// is live and the WAL (when given) is reopened for continued appending.
  Status Restore(const std::string& snapshot_path, const std::string& wal_path,
                 const SinkResolver& resolve);

  /// Durability counters (folded into Snapshot().durability).
  DurabilityStats durability() const { return durability_.Snapshot(); }

  /// Effective engine options (after a Restore these are the snapshot's,
  /// except the fault injector, which stays the constructed one).
  const EngineOptions& options() const { return options_; }

  /// Total events accepted.
  uint64_t events_ingested() const { return events_ingested_.Load(); }
  /// Events dropped at ingest under FaultPolicy::kSkipAndCount.
  uint64_t events_quarantined() const { return events_quarantined_.Load(); }
  /// Inline backend: live matcher runs across all queries (what
  /// max_total_runs caps). 0 on the shard backend.
  size_t live_runs() const { return live_runs_; }

  /// Shard backend: the first shard-side runtime fault (OK while none, and
  /// always OK inline). Under kFailFast the faulted engine drops further
  /// events and every Push returns this.
  Status first_fault() const;
  /// Shard backend: per-shard counters (empty inline or before the first
  /// Push) and merge-stage counters (zeros inline).
  std::vector<ShardStats> shard_stats() const;
  MergeStats merge_stats() const;

  /// Shared-layer introspection (tests, monitor). live_templates walks the
  /// registry; the rest are cheap counter reads folded into Snapshot().
  const TemplateRegistry& template_registry() const {
    return template_registry_;
  }
  /// True while events actually route through the shared layer: shared_eval
  /// is on and no fault injector has degraded it (inline: any query
  /// registered under an injector; shard backend: a query's own injector
  /// or the engine's).
  bool shared_eval_active() const {
    return options_.shared_eval && !degraded_faults_ &&
           (shards_ == nullptr || options_.fault_injector == nullptr);
  }

 private:
  class ShardBackend;  // runtime/shard_backend.h

  /// Per-stream state of the shared evaluation layer. The predicate index
  /// serves both backends; the rest is the inline backend's. Inline queries
  /// are referred to by dense per-stream slots assigned in name order (so
  /// the index's ascending-id output is exactly the per-query visit order
  /// the classic path produces); membership changes re-slot via
  /// RebuildSharedStream — hot add/remove is rare, events are not. The
  /// shard backend keys the index by query id instead.
  struct SharedStreamState {
    /// Entry-predicate dispatch index.
    PredicateIndex index;
    /// slot -> query, name-sorted (parallel to the slot numbering).
    std::vector<RunningQuery*> by_slot;
    /// Slots whose queries currently hold live matcher runs: these must be
    /// visited even for non-candidate events (runs can extend/expire/die).
    /// Updated after each visit — the only place run counts change.
    std::set<uint32_t> hot;
    /// One boundary tracker per distinct window scheme: every member
    /// query's report windows close at the same events, so the crossing
    /// check runs once per group instead of once per query.
    /// Key: (mode, span-or-n, registration offset mod n).
    struct WindowGroup {
      int64_t last = INT64_MIN;  // last boundary counter observed
      std::vector<uint32_t> slots;
    };
    std::map<std::tuple<int, int64_t, int64_t>, WindowGroup> window_groups;
    /// Reusable per-event scratch (swapped out during a Route call so
    /// nested derived-stream routing cannot clobber it).
    std::vector<uint32_t> cand_scratch;
    std::vector<uint32_t> due_scratch;
  };

  struct StreamState {
    SchemaPtr schema;
    uint64_t next_sequence = 0;
    /// Bounded out-of-order ingest buffer; owns the stream's watermark.
    /// Non-movable (single-writer atomic counters), so streams_ entries
    /// are built in place with try_emplace.
    ReorderBuffer reorder;
    SharedStreamState shared;
  };

  /// One registered query. The original registration inputs (text +
  /// pre-merge options) are kept so a snapshot can re-register the query
  /// under the restoring engine's own caps.
  struct QueryEntry {
    std::string name;
    std::string text;
    QueryOptions options;
    /// Registration ordinal: the snapshot's query order, and the dense
    /// query id on the shard backend (which never removes queries).
    uint32_t id = 0;
    /// Inline backend's pipeline (null on the shard backend).
    std::unique_ptr<RunningQuery> running;
  };

  // -- Ingest front (both backends) -----------------------------------------

  /// Validates `event` against the stream registry, journals it, and
  /// offers it to the stream's reorder buffer, appending whatever the
  /// buffer releases. Returns the stream (kLateDropped included — released
  /// stays empty); errors are Push's validation / late-rejection statuses.
  Result<StreamState*> OfferEvent(Event event, std::vector<Event>* released);
  /// Stamps one released event with its stream position and counts it.
  void Stamp(StreamState& state, Event& event) {
    event.set_sequence(state.next_sequence++);
    events_ingested_.Increment();
  }

  // -- Inline backend -------------------------------------------------------

  /// Builds the re-ingestion callback for an EMIT INTO query, creating or
  /// validating the derived stream's schema.
  Result<RunningQuery::ForwardFn> MakeForwarder(const CompiledQueryPtr& plan);
  /// Stamps each released event and fans it out to the stream's queries,
  /// in release order.
  Status Route(StreamState& state, std::vector<Event> released);
  /// Classic path: every query of the stream, in name order. Used when
  /// shared_eval is off (per-query counting) or degraded (explicit
  /// ordinals, full visits).
  Status RouteAll(StreamState& state, const EventPtr& event);
  /// Shared path: predicate-index probe, then visit only candidate, hot
  /// and window-due queries (in name order — same delivery interleaving as
  /// RouteAll).
  Status RouteShared(StreamState& state, const EventPtr& event);
  /// Re-slots a stream's queries (name order), rebuilds its predicate
  /// index, hot set and window groups. Called on query add/remove.
  void RebuildSharedStream(StreamState& state);
  StreamState* StreamOf(const CompiledQueryPtr& plan);

  // -- Snapshot body --------------------------------------------------------

  /// Serializes the full engine state as one snapshot body (the frame is
  /// ckpt::WriteSnapshotFile's job): the common prefix — options, WAL cut,
  /// streams, engine counters, query registrations — then the backend's
  /// own section. See docs/ARCHITECTURE.md.
  void SaveBody(BinWriter* w) const;
  /// Rebuilds the engine from a snapshot body: re-registers every stream
  /// and query from its saved DDL/text, then loads the serialized state
  /// over the fresh instances. Returns the WAL cut via *wal_cut.
  Status LoadBody(BinReader* r, const SinkResolver& resolve,
                  uint64_t* wal_cut);
  /// Replays a journal tail through the normal ingest path, skipping the
  /// first `skip` records (already captured by the snapshot). Registration
  /// records (schemas, deploys, undeploys journaled after the cut) are
  /// re-applied in position; `resolve` supplies replayed deploys' sinks.
  Status ReplayWal(const std::string& wal_path, uint64_t skip,
                   const SinkResolver& resolve);

  EngineOptions options_;
  std::map<std::string, StreamState, std::less<>> streams_;
  /// Keyed by lower-cased name (name order).
  std::map<std::string, QueryEntry, std::less<>> queries_;
  uint32_t next_query_id_ = 0;
  TemplateRegistry template_registry_;
  RelaxedCounter queries_deduped_;
  /// Sticky: set when a query registers under a fault injector; the engine
  /// then visits every query per event so fault schedules hit the exact
  /// positions the per-query path produces.
  bool degraded_faults_ = false;
  /// Ingest-thread-written; monitor threads may read them.
  RelaxedCounter events_ingested_;
  RelaxedCounter events_quarantined_;
  /// Inline backend's engine-wide live-run counter shared by every matcher
  /// (the max_total_runs budget).
  size_t live_runs_ = 0;
  /// Depth of nested Push calls through derived streams; bounds query
  /// composition cycles.
  int push_depth_ = 0;
  static constexpr int kMaxPushDepth = 8;

  // -- Durability state -----------------------------------------------------
  std::unique_ptr<WalWriter> wal_;
  /// Set around ReplayWal so replayed arrivals are not re-journaled.
  bool replaying_ = false;
  /// Checkpoint ordinal: the `ckpt.kill_mid_write` fault key.
  uint64_t checkpoint_attempts_ = 0;
  AtomicDurabilityStats durability_;

  /// Null for the inline backend. Declared last: its worker threads read
  /// the members above, so it is destroyed (and joined) first.
  std::unique_ptr<ShardBackend> shards_;
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_ENGINE_H_
