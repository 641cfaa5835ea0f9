#include "runtime/shard_backend.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace cepr {

namespace {
constexpr int64_t kAckedAll = std::numeric_limits<int64_t>::max();
}  // namespace

Engine::ShardBackend::ShardBackend(Engine* engine)
    : engine_(*engine), options_(engine->options_) {}

Engine::ShardBackend::~ShardBackend() {
  if (started() && !finished_) {
    // The abort flag (instead of a kFinish message) guarantees teardown
    // even when a shard's ring is full or its consumer is wedged in an
    // injected stall. Finish() is the orderly path.
    Abort();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }
}

Status Engine::ShardBackend::CheckNotStarted() const {
  if (!started()) return Status::OK();
  return Status::InvalidArgument(
      "sharded engine: queries must be registered before the first Push");
}

Status Engine::ShardBackend::CheckPlan(const CompiledQuery& plan) {
  if (plan.emit == EmitPolicy::kOnComplete) {
    return Status::InvalidArgument(
        "sharded engine: EMIT ON COMPLETE (eager emission) is "
        "order-dependent across shards; use EMIT ON WINDOW CLOSE or "
        "EMIT EVERY n EVENTS");
  }
  if (!plan.into_stream.empty()) {
    return Status::InvalidArgument(
        "sharded engine: EMIT INTO derived streams are not supported "
        "(re-ingestion would create cross-shard feedback)");
  }
  return Status::OK();
}

Status Engine::ShardBackend::CheckRemove() {
  return Status::Unimplemented(
      "undeploy requires the serial engine: sharded queries are fixed at "
      "start");
}

Status Engine::ShardBackend::CheckNotFinished() const {
  if (finished_) return Status::InvalidArgument("sharded engine is finished");
  return Status::OK();
}

void Engine::ShardBackend::AddQuery(
    uint32_t id, std::string name, CompiledQueryPtr plan,
    const QueryOptions& options, Sink* sink,
    std::shared_ptr<const NfaTemplate> nfa_template) {
  ShardMergeOptions merge;
  merge.by_score =
      plan->score != nullptr && options.ranker != RankerPolicy::kPassthrough;
  merge.desc = plan->rank_desc;
  merge.limit = plan->limit < 0 ? static_cast<size_t>(-1)
                                : static_cast<size_t>(plan->limit);
  const ShardRouter router(*plan, options_.num_shards, id);
  auto q = std::make_unique<QueryState>(std::move(name), std::move(plan),
                                        options, sink, router, merge);
  q->pending.resize(options_.num_shards);
  q->nfa_template = std::move(nfa_template);
  queries_.push_back(std::move(q));
}

void Engine::ShardBackend::BuildShards() {
  const size_t num_shards = options_.num_shards;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->queue = std::make_unique<SpscQueue<Message>>(options_.queue_capacity);
    shard->published.resize(queries_.size());
    shard->acked_window =
        std::make_unique<std::atomic<int64_t>[]>(queries_.size());
    shard->metrics.timings.resize(queries_.size());
    shard->cells.reserve(queries_.size());
    for (const auto& q : queries_) {
      shard->acked_window[shard->cells.size()].store(
          0, std::memory_order_relaxed);
      QueryCell cell;
      cell.emitter = std::make_unique<Emitter>(q->plan, q->options.ranker);
      MatcherOptions matcher_options = q->options.matcher;
      if (matcher_options.max_total_runs > 0) {
        // Each shard enforces its even share of the engine-wide budget
        // against its own live-run counter (shard threads never touch each
        // other's state).
        matcher_options.max_total_runs =
            std::max<size_t>(1, matcher_options.max_total_runs / num_shards);
      }
      // Dag mode defers matches to window close, so it composes only with
      // the buffered heap-based policies (gate on the ranker's resolved
      // policy — it may have degraded, e.g. no RANK BY -> passthrough).
      const RankerPolicy resolved = cell.emitter->ranker().policy();
      if (resolved != RankerPolicy::kHeap && resolved != RankerPolicy::kPruned) {
        matcher_options.shared_match_dag = false;
      }
      cell.matcher = std::make_unique<PartitionedMatcher>(
          q->plan, matcher_options, cell.emitter->pruner(), &shard->live_runs);
      cell.emitter->BindDagStore(cell.matcher->dag_store());
      shard->cells.push_back(std::move(cell));
    }
    shards_.push_back(std::move(shard));
  }
}

void Engine::ShardBackend::SpawnWorkers() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->thread = std::thread([this, s] { ShardMain(s); });
  }
  started_.store(true, std::memory_order_release);
}

void Engine::ShardBackend::Abort() {
  abort_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->park_mu);
    shard->park_cv.notify_one();
  }
}

Status Engine::ShardBackend::Quiesce() {
  if (finished_) {
    return Status::InvalidArgument(
        "sharded engine is finished; checkpoint before Finish()");
  }
  // Nothing to drain before the first Push.
  if (!started()) return Status::OK();
  const uint64_t gen = ++quiesce_generation_;
  for (auto& shard : shards_) {
    Message msg;
    msg.kind = Message::Kind::kQuiesce;
    msg.ordinal = gen;
    CEPR_RETURN_IF_ERROR(Enqueue(shard.get(), std::move(msg)));
  }
  // The ring is FIFO, so the acknowledgment means everything enqueued
  // before the quiesce has been fully processed; the release/acquire pair
  // on `quiesced` makes those cell writes visible to this thread.
  Stopwatch wait;
  const int64_t budget_us = options_.enqueue_stall_budget_ms * 1000;
  for (auto& shard : shards_) {
    while (shard->quiesced.load(std::memory_order_acquire) < gen) {
      if (abort_.load(std::memory_order_acquire)) {
        return Status::Unavailable("checkpoint quiesce: engine aborted");
      }
      if (budget_us > 0 && wait.ElapsedMicros() > budget_us) {
        return Status::Unavailable(
            "checkpoint quiesce: shard " + std::to_string(shard->index) +
            " did not acknowledge within " +
            std::to_string(options_.enqueue_stall_budget_ms) +
            " ms; consumer presumed dead or wedged");
      }
      std::this_thread::yield();
    }
  }
  return Status::OK();
}

Status Engine::ShardBackend::Enqueue(Shard* shard, Message msg) {
  // Injected ring-full probe: behaves as one failed push attempt so the
  // backpressure accounting is exercised deterministically.
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFire(fault_points::kShardRingFull,
                                          shard->index)) {
    shard->metrics.enqueue_stalls.Increment();
  }
  if (!shard->queue->TryPush(msg)) {
    // Full ring: backpressure with a bounded patience. Yield-spin briefly
    // (the consumer usually frees a slot within microseconds), then back
    // off to short sleeps; past the stall budget the shard is presumed
    // dead and the push fails rather than hanging the ingest thread.
    Stopwatch stall;
    const int64_t budget_us = options_.enqueue_stall_budget_ms * 1000;
    uint64_t attempts = 0;
    do {
      shard->metrics.enqueue_stalls.Increment();
      if (++attempts <= 256) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      if (budget_us > 0 && stall.ElapsedMicros() > budget_us) {
        shard->metrics.stall_us.Add(
            static_cast<uint64_t>(stall.ElapsedMicros()));
        shard->metrics.stalls_tripped.Increment();
        return Status::Unavailable(
            "shard " + std::to_string(shard->index) + " ingest ring (" +
            std::to_string(shard->queue->capacity()) +
            " slots) stayed full for " +
            std::to_string(options_.enqueue_stall_budget_ms) +
            " ms; consumer presumed dead or wedged");
      }
    } while (!shard->queue->TryPush(msg));
    shard->metrics.stall_us.Add(static_cast<uint64_t>(stall.ElapsedMicros()));
  }
  shard->metrics.queue_high_water.Observe(shard->queue->size());
  if (shard->parked.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(shard->park_mu);
    shard->park_cv.notify_one();
  }
  return Status::OK();
}

void Engine::ShardBackend::PublishResults(Shard* shard, uint32_t query,
                                          std::vector<RankedResult> results) {
  if (results.empty()) return;
  shard->metrics.batches_published.Increment();
  std::lock_guard<std::mutex> lock(shard->mu);
  auto& out = shard->published[query];
  for (RankedResult& r : results) out.push_back(std::move(r));
}

void Engine::ShardBackend::ShardMain(size_t shard_index) {
  Shard* shard = shards_[shard_index].get();
  std::vector<RankedResult> scratch;
  Message msg;
  for (;;) {
    if (abort_.load(std::memory_order_acquire)) return;
    // Injected wedge: the consumer sleeps instead of draining its ring
    // until the point is disarmed (or the engine aborts). Exercises the
    // producer-side stall budget.
    if (options_.fault_injector != nullptr) {
      while (options_.fault_injector->ShouldFire(fault_points::kShardStall,
                                                 shard_index)) {
        if (abort_.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    if (!shard->queue->TryPop(&msg)) {
      // Spin briefly, then park with a bounded wait (the router nudges on
      // push; the timeout self-heals a missed nudge).
      bool got = false;
      for (int spin = 0; spin < 64 && !got; ++spin) {
        std::this_thread::yield();
        got = shard->queue->TryPop(&msg);
      }
      if (!got) {
        std::unique_lock<std::mutex> lock(shard->park_mu);
        shard->parked.store(true, std::memory_order_release);
        shard->park_cv.wait_for(lock, std::chrono::microseconds(200),
                                [&] {
                                  return !shard->queue->Empty() ||
                                         abort_.load(std::memory_order_acquire);
                                });
        shard->parked.store(false, std::memory_order_release);
        continue;
      }
    }

    // NOTE: the (shard, query) cell is bound inside the kEvent/kBarrier
    // arms only — a kFinish message carries a default-initialized `query`
    // index, and a shard with zero registered queries has no cell 0 at all.
    scratch.clear();
    switch (msg.kind) {
      case Message::Kind::kEvent: {
        // A faulted (kFailFast) engine only drains: events are dropped so
        // the rings empty out, while barriers and finish flushes keep the
        // merge machinery consistent.
        if (faulted_.load(std::memory_order_acquire)) break;
        QueryCell& cell = shard->cells[msg.query];
        Stopwatch timer;
        shard->metrics.events.Increment();
        std::vector<Match> matches;
        std::vector<LazyMatchSet> lazy;
        // Non-candidate events still visit the matcher when this shard
        // holds live runs for the query (runs can extend/expire/die); with
        // no runs the visit is a proven no-op and is skipped. The emitter
        // always runs so window closes land at identical positions.
        bool evaluated = true;
        const bool dag = cell.matcher->dag_store() != nullptr;
        const Status matched =
            cell.matcher->OnEvent(msg.event, &matches, msg.candidate,
                                  &evaluated, dag ? &lazy : nullptr);
        shard->metrics.matches.Add(matches.size() + lazy.size());
        cell.emitter->OnEvent(msg.ts, msg.ordinal, std::move(matches),
                              std::move(lazy), &scratch);
        RecordTimings(shard, msg.query,
                      evaluated ? timer.ElapsedNanos() : -1, scratch);
        PublishResults(shard, msg.query, std::move(scratch));
        if (!matched.ok()) RecordFault(matched);
        break;
      }
      case Message::Kind::kBarrier: {
        // Advance this shard's windows to the barrier position (an empty
        // event batch closes any window the stream has moved past), then
        // acknowledge so the router may merge.
        QueryCell& cell = shard->cells[msg.query];
        shard->metrics.barriers.Increment();
        cell.emitter->OnEvent(msg.ts, msg.ordinal, {}, &scratch);
        const int64_t window =
            cell.emitter->windows().WindowOf(msg.ts, msg.ordinal);
        RecordTimings(shard, msg.query, /*processing_ns=*/-1, scratch);
        PublishResults(shard, msg.query, std::move(scratch));
        shard->acked_window[msg.query].store(window, std::memory_order_release);
        break;
      }
      case Message::Kind::kQuiesce: {
        // FIFO ring: everything enqueued before this message is fully
        // processed. Publish the generation (release) so the checkpointing
        // ingest thread observes every cell write made up to here.
        shard->quiesced.store(msg.ordinal, std::memory_order_release);
        break;
      }
      case Message::Kind::kFinish: {
        for (uint32_t q = 0; q < shard->cells.size(); ++q) {
          scratch.clear();
          shard->cells[q].emitter->Finish(&scratch);
          RecordTimings(shard, q, /*processing_ns=*/-1, scratch);
          PublishResults(shard, q, std::move(scratch));
          shard->acked_window[q].store(kAckedAll, std::memory_order_release);
        }
        return;
      }
    }
  }
}

void Engine::ShardBackend::RecordTimings(
    Shard* shard, uint32_t query, int64_t processing_ns,
    const std::vector<RankedResult>& emitted) {
  if (processing_ns < 0 && emitted.empty()) return;
  const Timestamp now = shard->cells[query].emitter->last_event_ts();
  std::lock_guard<std::mutex> lock(shard->metrics.mu);
  MetricsCell::Timings& t = shard->metrics.timings[query];
  if (processing_ns >= 0) t.processing_ns.Record(processing_ns);
  for (const RankedResult& r : emitted) {
    t.emission_delay_us.Record(now - r.match.last_ts);
  }
}

void Engine::ShardBackend::RecordFault(const Status& status) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (first_fault_.ok()) {
    first_fault_ = status;
    faulted_.store(true, std::memory_order_release);
  }
}

Status Engine::ShardBackend::first_fault() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return first_fault_;
}

Status Engine::ShardBackend::Push(Event event) {
  CEPR_RETURN_IF_ERROR(CheckNotFinished());
  if (faulted_.load(std::memory_order_acquire)) return first_fault();
  std::vector<Event> released;
  CEPR_ASSIGN_OR_RETURN(StreamState * state,
                        engine_.OfferEvent(std::move(event), &released));
  return Route(*state, std::move(released));
}

Status Engine::ShardBackend::Route(StreamState& state,
                                   std::vector<Event> released) {
  for (Event& event : released) {
    engine_.Stamp(state, event);
    CEPR_RETURN_IF_ERROR(RouteEvent(state, std::move(event)));
  }
  return Status::OK();
}

Status Engine::ShardBackend::RouteEvent(StreamState& state, Event event) {
  // One predicate-index probe per released event: the router tags each
  // per-query message with the verdict so shards can skip matcher visits
  // that are provably no-ops (docs/MULTIQUERY.md). Degraded (everything a
  // candidate) while a fault injector is armed.
  PredicateIndex& index = state.shared.index;
  const bool use_index =
      engine_.shared_eval_active() && index.num_queries() > 0;
  std::vector<uint32_t>& cand = state.shared.cand_scratch;
  cand.clear();
  if (use_index) index.Probe(event, &cand);

  if (!started()) {
    BuildShards();
    SpawnWorkers();
  }

  const auto shared = std::make_shared<const Event>(std::move(event));
  for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
    QueryState& q = *queries_[qi];
    if (q.plan->schema() != state.schema) continue;

    const uint64_t ordinal = q.ordinal.PostIncrement();
    const Timestamp ts = shared->timestamp();
    const int64_t window = q.windows.WindowOf(ts, ordinal);
    if (window > q.current_window) {
      // The stream crossed a report-window boundary: tell every shard so
      // each closes and publishes its slice of the old window(s). If a
      // shard refuses the barrier (stall budget tripped) the broadcast is
      // abandoned mid-way; current_window stays put, so a later Push
      // re-broadcasts — re-processing a barrier at the same position is a
      // no-op on shards that already advanced.
      for (auto& shard : shards_) {
        Message barrier;
        barrier.kind = Message::Kind::kBarrier;
        barrier.query = qi;
        barrier.ordinal = ordinal;
        barrier.ts = ts;
        CEPR_RETURN_IF_ERROR(Enqueue(shard.get(), std::move(barrier)));
      }
      q.current_window = window;
    }

    Message msg;
    msg.kind = Message::Kind::kEvent;
    msg.query = qi;
    msg.event = shared;
    msg.ordinal = ordinal;
    msg.ts = ts;
    msg.candidate =
        !use_index || std::binary_search(cand.begin(), cand.end(), qi);
    CEPR_RETURN_IF_ERROR(
        Enqueue(shards_[q.router.ShardOf(*shared)].get(), std::move(msg)));

    DrainReady(&q, qi, /*final=*/false);
  }
  return Status::OK();
}

void Engine::ShardBackend::DrainReady(QueryState* q, uint32_t query_index,
                                      bool final) {
  int64_t complete = kAckedAll;
  if (!final) {
    for (auto& shard : shards_) {
      complete = std::min(
          complete,
          shard->acked_window[query_index].load(std::memory_order_acquire));
    }
    if (complete <= q->merged_upto) return;
  }

  // Pull each shard's published prefix below the completion point. The
  // published deques are window-ordered, so this is a front splice.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    std::lock_guard<std::mutex> lock(shard->mu);
    auto& published = shard->published[query_index];
    while (!published.empty() &&
           (final || published.front().window_id < complete)) {
      q->pending[s].push_back(std::move(published.front()));
      published.pop_front();
    }
  }

  // Merge window by window, in ascending window order (windows nobody
  // produced results for are skipped — the inline backend emits nothing
  // for them either).
  for (;;) {
    int64_t window = kAckedAll;
    for (const auto& pending : q->pending) {
      if (!pending.empty()) window = std::min(window, pending.front().window_id);
    }
    if (window == kAckedAll || (!final && window >= complete)) break;

    std::vector<std::vector<RankedResult>> lists(q->pending.size());
    for (size_t s = 0; s < q->pending.size(); ++s) {
      auto& pending = q->pending[s];
      while (!pending.empty() && pending.front().window_id == window) {
        lists[s].push_back(std::move(pending.front()));
        pending.pop_front();
      }
    }
    std::vector<RankedResult> merged = MergeShardResults(std::move(lists), q->merge);
    merge_.windows_merged.Increment();
    merge_.results_emitted.Add(merged.size());
    q->results_delivered.Add(merged.size());
    if (q->sink != nullptr) {
      for (const RankedResult& r : merged) q->sink->OnResult(r);
    }
  }
  if (!final) q->merged_upto = complete;
}

void Engine::ShardBackend::Finish() {
  if (finished_) return;
  // Resident (still-unreleased) events must reach the shards before the
  // kFinish flush closes their windows.
  const Status drained = engine_.Flush();
  if (!drained.ok()) {
    CEPR_LOG(WARNING) << "Finish: reorder flush failed: "
                      << drained.ToString();
  }
  finished_ = true;
  if (!started()) return;  // no events: nothing buffered anywhere
  bool degraded = false;
  for (auto& shard : shards_) {
    Message finish;
    finish.kind = Message::Kind::kFinish;
    const Status s = Enqueue(shard.get(), std::move(finish));
    if (!s.ok()) {
      // A wedged shard will not take its finish message; degrade to an
      // abort so Finish still terminates. Healthy shards flush normally
      // first (each got its kFinish before the abort flag goes up).
      CEPR_LOG(WARNING) << "Finish: " << s.ToString()
                        << "; aborting instead of flushing";
      degraded = true;
    }
  }
  if (degraded) Abort();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
    DrainReady(queries_[qi].get(), qi, /*final=*/true);
  }
}

std::vector<ShardStats> Engine::ShardBackend::shard_stats() const {
  std::vector<ShardStats> out;
  if (!started()) return out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->metrics.Snapshot());
  }
  return out;
}

QueryMetrics Engine::ShardBackend::AggregateQueryMetrics(uint32_t id) const {
  const QueryState& q = *queries_[id];
  QueryMetrics m;
  m.events = q.ordinal.Load();
  m.results = q.results_delivered.Load();
  if (!started()) return m;
  for (const auto& shard : shards_) {
    const QueryCell& cell = shard->cells[id];
    const MatcherStats s = cell.matcher->stats();
    m.matches += s.matches;
    m.matcher.Accumulate(s);
    if (cell.emitter->score_pruner() != nullptr) {
      m.prune_checks += cell.emitter->score_pruner()->checks();
      m.prunes += cell.emitter->score_pruner()->prunes();
    }
    m.matches_enumerated += cell.emitter->ranker().matches_enumerated();
    m.enumeration_cutoffs += cell.emitter->ranker().enumeration_cutoffs();
    std::lock_guard<std::mutex> lock(shard->metrics.mu);
    const MetricsCell::Timings& t = shard->metrics.timings[id];
    m.event_processing_ns.Merge(t.processing_ns);
    m.emission_delay_us.Merge(t.emission_delay_us);
  }
  return m;
}

void Engine::ShardBackend::FillSnapshot(MetricsSnapshot* snap) const {
  snap->num_shards = options_.num_shards;
  snap->queries.reserve(queries_.size());
  for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
    snap->queries.push_back({queries_[qi]->name, AggregateQueryMetrics(qi)});
    snap->sharing.bytecode_compiled_preds +=
        static_cast<uint64_t>(queries_[qi]->plan->num_bytecode_programs);
  }
  snap->shards = shard_stats();
  snap->merge = merge_stats();
}

}  // namespace cepr
