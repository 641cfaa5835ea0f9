#ifndef CEPR_RUNTIME_ENGINE_H_
#define CEPR_RUNTIME_ENGINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "engine/predicate_index.h"
#include "plan/signature.h"
#include "runtime/checkpoint.h"
#include "runtime/query.h"
#include "runtime/reorder.h"
#include "runtime/wal.h"

namespace cepr {

/// Engine-wide options.
struct EngineOptions {
  // -- Event time / out-of-order ingest --------------------------------------

  /// How far (event-time microseconds) an event may arrive behind the
  /// highest timestamp seen on its stream and still be reordered into
  /// place by the per-stream reorder buffer (see runtime/reorder.h).
  /// 0 = strict in-order ingest, today's default.
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
  /// Cap on live matcher runs across every query and partition.
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
  /// Automatically degraded to full per-query visits while any registered
  /// query has a fault injector armed, so injected fault schedules fire at
  /// the exact event positions the per-query path would produce.
  bool shared_eval = true;
};

/// The CEPR system facade: stream registry, query registry, and the ingest
/// path. Typical use:
///
///   Engine engine;
///   engine.ExecuteDdl("CREATE STREAM Stock (symbol STRING, price FLOAT)");
///   CollectSink sink;
///   engine.RegisterQuery("crash", kQueryText, QueryOptions{}, &sink);
///   for (const Event& e : events) engine.Push(e);
///   engine.Finish();
///
/// Single-threaded: Push and Finish must not be called concurrently.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

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
  /// Fails with AlreadyExists for duplicate names.
  Status RegisterQuery(std::string name, std::string_view query_text,
                       const QueryOptions& options, Sink* sink);

  /// Stops and removes a query (flushing it first).
  Status RemoveQuery(std::string_view name);

  Result<const RunningQuery*> GetQuery(std::string_view name) const;
  std::vector<std::string> QueryNames() const;

  /// One query's metrics snapshot (same shape as ShardedEngine's). Like
  /// every Engine call this runs on the single driving thread.
  Result<QueryMetrics> GetQueryMetrics(std::string_view name) const;

  /// Engine-wide metrics snapshot: every query's counters and latency
  /// histograms, in name order (facade parity with
  /// ShardedEngine::Snapshot; num_shards is 1 and the shard list empty).
  MetricsSnapshot Snapshot() const;

  // -- Ingest ---------------------------------------------------------------

  /// Ingests one event: validates its schema is registered, offers it to
  /// the stream's reorder buffer, and routes every event the buffer
  /// releases — stamped with the per-stream sequence number at release —
  /// to every query on that stream. With the default zero lateness bound
  /// the buffer is a pass-through and this is the classic strict-order
  /// ingest path.
  Status Push(Event event);

  /// Drains every stream's reorder buffer, routing the resident events
  /// downstream in release order. After a flush, an arrival older than
  /// anything flushed is late. Finish() calls this; exposed for callers
  /// that need the buffered tail visible without ending the stream.
  Status Flush();

  /// Ingests a batch in order, one Push per event. On failure the Status
  /// names the failing index and the already-ingested prefix; under
  /// FaultPolicy::kSkipAndCount failing events are skipped (counted in
  /// events_quarantined) and the rest of the batch proceeds.
  Status PushAll(std::vector<Event> events);

  /// Signals end-of-stream: every query flushes its buffered windows.
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
  /// the records that arrived after this cut.
  Status Checkpoint(const std::string& path);

  /// Rebuilds this engine from a snapshot, then replays the WAL tail past
  /// the snapshot's cut through the normal ingest path. Must be called on a
  /// pristine engine (no streams, no queries, nothing ingested) constructed
  /// with the caller's fault injector if one is wanted; `resolve` supplies
  /// each restored query's sink by name (see SinkResolver). Pass an empty
  /// `wal_path` to restore from the snapshot alone. On success the engine
  /// is live and the WAL (when given) is reopened for continued appending.
  Status Restore(const std::string& snapshot_path, const std::string& wal_path,
                 const SinkResolver& resolve);

  /// Durability counters (folded into Snapshot().durability).
  const DurabilityStats& durability() const { return durability_; }

  /// Effective engine options (after a Restore these are the snapshot's,
  /// except the fault injector, which stays the constructed one).
  const EngineOptions& options() const { return options_; }

  /// Total events accepted.
  uint64_t events_ingested() const { return events_ingested_; }
  /// Events dropped at ingest under FaultPolicy::kSkipAndCount.
  uint64_t events_quarantined() const { return events_quarantined_; }
  /// Live matcher runs across all queries (what max_total_runs caps).
  size_t live_runs() const { return live_runs_; }

  /// Shared-layer introspection (tests, monitor). live_templates walks the
  /// registry; the rest are cheap counter reads folded into Snapshot().
  const TemplateRegistry& template_registry() const {
    return template_registry_;
  }
  /// True while events actually route through the shared layer (i.e.
  /// shared_eval is on and no fault injector has degraded it).
  bool shared_eval_active() const {
    return options_.shared_eval && !degraded_faults_;
  }

 private:
  /// Per-stream state of the shared evaluation layer. Queries are referred
  /// to by dense per-stream slots assigned in name order (so the predicate
  /// index's ascending-id output is exactly the per-query visit order the
  /// classic path produces); membership changes re-slot via
  /// RebuildSharedStream — hot add/remove is rare, events are not.
  struct SharedStreamState {
    /// Entry-predicate dispatch index; slot-keyed.
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

  /// Builds the re-ingestion callback for an EMIT INTO query, creating or
  /// validating the derived stream's schema.
  Result<RunningQuery::ForwardFn> MakeForwarder(const CompiledQueryPtr& plan);

  /// Validates `event` against the stream registry and offers it to the
  /// stream's reorder buffer, appending whatever the buffer releases.
  /// Returns the stream (kLateDropped included — released stays empty);
  /// errors are Push's validation / late-rejection statuses.
  Result<StreamState*> OfferEvent(Event event, std::vector<Event>* released);
  /// Stamps each released event with the stream's sequence number and fans
  /// it out to the stream's queries, in release order.
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

  /// Serializes the full engine state as one snapshot body (the frame is
  /// ckpt::WriteSnapshotFile's job); see docs/ARCHITECTURE.md.
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
  std::map<std::string, std::unique_ptr<RunningQuery>, std::less<>> queries_;
  /// Original registration inputs, kept so a snapshot can re-register each
  /// query from its text + pre-merge options (the engine-wide caps are
  /// re-merged by the restoring engine).
  struct QueryRegistration {
    std::string text;
    QueryOptions options;
  };
  std::map<std::string, QueryRegistration, std::less<>> registrations_;
  TemplateRegistry template_registry_;
  uint64_t queries_deduped_ = 0;
  /// Sticky: set when any registered query arms a fault injector; the
  /// engine then visits every query per event so fault schedules hit the
  /// exact positions the per-query path produces.
  bool degraded_faults_ = false;
  uint64_t events_ingested_ = 0;
  uint64_t events_quarantined_ = 0;
  /// Engine-wide live-run counter shared by every matcher (the
  /// max_total_runs budget); single-threaded like the rest of the engine.
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
  DurabilityStats durability_;
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_ENGINE_H_
