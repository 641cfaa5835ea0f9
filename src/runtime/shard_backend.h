#ifndef CEPR_RUNTIME_SHARD_BACKEND_H_
#define CEPR_RUNTIME_SHARD_BACKEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/spsc_queue.h"
#include "engine/shard_router.h"
#include "rank/merge.h"
#include "runtime/engine.h"
#include "runtime/metrics.h"

namespace cepr {

/// The engine's N-shard execution backend (EngineOptions::num_shards > 0):
/// PARTITION BY keys are hashed across N worker shards, each owning its
/// partitions' matcher runs, report windows and pruning state, fed through
/// bounded SPSC rings. Ranked emission stays exactly equivalent to the
/// inline backend: every shard keeps a window-local top-k, and when all
/// shards have moved past a report window (tracked by router-broadcast
/// window barriers) the per-shard ordered lists are k-way merged under the
/// deterministic (score, detecting-event sequence, matcher id) order and
/// cut to LIMIT — byte-identical to the inline result (tested property; see
/// docs/ARCHITECTURE.md).
///
/// The Engine's ingest front (validation, WAL, reorder, sequence stamping)
/// runs first on the ingest thread; this class routes each released event.
/// Sinks run on the ingest thread; shard threads never touch user code.
///
/// Capabilities missing versus the inline backend (each refused with its
/// own status): EMIT ON COMPLETE (eager provisional emission is inherently
/// order-dependent across partitions), EMIT INTO (re-ingestion would create
/// cross-shard feedback), registration after the first Push, RemoveQuery,
/// and any ingest after Finish.
class Engine::ShardBackend {
 public:
  explicit ShardBackend(Engine* engine);
  /// Stops the workers without delivering when Finish() never ran: the
  /// user's sinks may already be gone.
  ~ShardBackend();

  ShardBackend(const ShardBackend&) = delete;
  ShardBackend& operator=(const ShardBackend&) = delete;

  // -- Capability checks ----------------------------------------------------

  /// Queries register before the first Push only.
  Status CheckNotStarted() const;
  /// No EMIT ON COMPLETE, no EMIT INTO.
  static Status CheckPlan(const CompiledQuery& plan);
  /// Queries are fixed at start: RemoveQuery always fails.
  static Status CheckRemove();
  /// Terminal after Finish (Push, Flush).
  Status CheckNotFinished() const;

  // -- Driving (ingest thread) ----------------------------------------------

  /// Adds query `id` (== its registration ordinal). `options.matcher` holds
  /// the engine-merged caps.
  void AddQuery(uint32_t id, std::string name, CompiledQueryPtr plan,
                const QueryOptions& options, Sink* sink,
                std::shared_ptr<const NfaTemplate> nfa_template);
  /// Push on the shard backend: refuses a finished or faulted engine, then
  /// runs the front's OfferEvent and routes what the buffer released.
  Status Push(Event event);
  /// Stamps each released event and routes it: per-query ordinal, window
  /// barriers, shard enqueue, opportunistic merge drain.
  Status Route(StreamState& state, std::vector<Event> released);
  /// Drains the reorder buffers, flushes every shard, joins the workers,
  /// merges and delivers all remaining windows.
  void Finish();
  /// Checkpoint cut: enqueues a kQuiesce to every shard and waits until all
  /// acknowledge, so every previously routed message is fully processed and
  /// its cell writes are visible to the ingest thread. Fails after Finish,
  /// and with kUnavailable past the enqueue stall budget (wedged shard).
  /// No-op before the first Push.
  Status Quiesce();

  // -- Snapshot section (ingest thread; workers quiesced) -------------------

  void SaveState(BinWriter* w) const;
  /// Loads the section over freshly re-registered queries, then spawns the
  /// workers if the snapshot had them running.
  Status LoadState(BinReader* r);

  // -- Introspection (any thread once registration is done) -----------------

  bool started() const { return started_.load(std::memory_order_acquire); }
  Status first_fault() const;
  std::vector<ShardStats> shard_stats() const;
  MergeStats merge_stats() const { return merge_.Snapshot(); }
  /// Sums matcher/pruner counters and latency histograms across shards.
  QueryMetrics AggregateQueryMetrics(uint32_t id) const;
  /// Fills the shard-specific parts of an engine snapshot: shard count,
  /// per-query metrics in registration order, shards, merge.
  void FillSnapshot(MetricsSnapshot* snap) const;

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

  struct QueryState {
    QueryState(std::string name_in, CompiledQueryPtr plan_in,
               const QueryOptions& options_in, Sink* sink_in,
               ShardRouter router_in, ShardMergeOptions merge_in)
        : name(std::move(name_in)),
          plan(std::move(plan_in)),
          options(options_in),
          sink(sink_in),
          router(router_in),
          windows(ReportWindowAssigner::ForQuery(*plan)),
          merge(merge_in) {}

    std::string name;
    CompiledQueryPtr plan;
    QueryOptions options;  // matcher caps already engine-merged
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

  /// The first routed event runs both; LoadState loads the restored cell
  /// state on the ingest thread between the two (thread creation
  /// publishes those writes).
  void BuildShards();
  void SpawnWorkers();
  /// Sets the abort flag and wakes every parked shard.
  void Abort();
  void ShardMain(size_t shard_index);
  /// Routes one stamped event to its owning shard per query.
  Status RouteEvent(StreamState& state, Event event);
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

  Engine& engine_;
  /// The engine's options (a Restore overwrites them before LoadState).
  const EngineOptions& options_;
  std::vector<std::unique_ptr<QueryState>> queries_;
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
  AtomicMergeStats merge_;
  uint64_t quiesce_generation_ = 0;
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_SHARD_BACKEND_H_
