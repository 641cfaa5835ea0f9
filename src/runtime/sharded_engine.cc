#include "runtime/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "lang/parser.h"
#include "plan/compiler.h"
#include "runtime/serde.h"

namespace cepr {

namespace {
constexpr int64_t kAckedAll = std::numeric_limits<int64_t>::max();
}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(options),
      num_shards_(options.num_shards != 0
                      ? options.num_shards
                      : std::max(1u, std::thread::hardware_concurrency())) {}

ShardedEngine::~ShardedEngine() {
  if (WorkersStarted() && !finished_) {
    // Stop workers without delivering: the user's sinks may already be
    // gone. Finish() is the orderly path. The abort flag (instead of a
    // kFinish message) guarantees teardown even when a shard's ring is
    // full or its consumer is wedged in an injected stall.
    abort_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->park_mu);
      shard->park_cv.notify_one();
    }
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }
}

Status ShardedEngine::ExecuteDdl(std::string_view ddl_text) {
  CEPR_ASSIGN_OR_RETURN(CreateStreamAst ast, ParseCreateStream(ddl_text));
  CEPR_ASSIGN_OR_RETURN(SchemaPtr schema,
                        Schema::Make(ast.name, std::move(ast.attributes)));
  return RegisterSchema(std::move(schema));
}

Status ShardedEngine::RegisterSchema(SchemaPtr schema) {
  if (schema == nullptr) return Status::InvalidArgument("schema is null");
  const std::string key = ToLower(schema->name());
  if (streams_.count(key) > 0) {
    return Status::AlreadyExists("stream '" + schema->name() +
                                 "' is already registered");
  }
  // StreamState is non-movable (the reorder buffer's atomic counters), so
  // build it in place.
  const auto [it, inserted] = streams_.try_emplace(key);
  it->second.schema = std::move(schema);
  it->second.reorder.set_config(
      ReorderConfig{options_.max_lateness_micros, options_.late_policy});
  // Journal the registration so a crash before the next checkpoint does not
  // lose the stream (replay re-registers it before any of its events).
  if (wal_ != nullptr && !replaying_) {
    BinWriter blob;
    SaveSchema(&blob, *it->second.schema);
    CEPR_RETURN_IF_ERROR(wal_->AppendSchema(blob.buffer()));
    wal_appended_.Increment();
  }
  return Status::OK();
}

Status ShardedEngine::ConfigureStreamIngest(std::string_view stream_name,
                                            ReorderConfig config) {
  const auto it = streams_.find(ToLower(stream_name));
  if (it == streams_.end()) {
    return Status::NotFound("no stream named '" + std::string(stream_name) +
                            "'");
  }
  if (it->second.reorder.saw_event()) {
    return Status::InvalidArgument(
        "stream '" + it->second.schema->name() +
        "' already has events; configure ingest before the first Push");
  }
  it->second.reorder.set_config(config);
  return Status::OK();
}

Result<SchemaPtr> ShardedEngine::GetSchema(std::string_view stream_name) const {
  const auto it = streams_.find(ToLower(stream_name));
  if (it == streams_.end()) {
    return Status::NotFound("no stream named '" + std::string(stream_name) +
                            "'");
  }
  return it->second.schema;
}

Status ShardedEngine::RegisterQuery(std::string name,
                                    std::string_view query_text,
                                    const QueryOptions& options, Sink* sink) {
  if (WorkersStarted()) {
    return Status::InvalidArgument(
        "sharded engine: queries must be registered before the first Push");
  }
  const std::string key = ToLower(name);
  if (query_index_.count(key) > 0) {
    return Status::AlreadyExists("query '" + name + "' is already registered");
  }
  CEPR_ASSIGN_OR_RETURN(QueryAst ast, ParseQuery(query_text));
  CEPR_ASSIGN_OR_RETURN(SchemaPtr schema, GetSchema(ast.stream_name));
  CEPR_ASSIGN_OR_RETURN(AnalyzedQuery analyzed, Analyze(std::move(ast), schema));
  CEPR_ASSIGN_OR_RETURN(CompiledQueryPtr plan, Compile(std::move(analyzed)));

  if (plan->emit == EmitPolicy::kOnComplete) {
    return Status::InvalidArgument(
        "sharded engine: EMIT ON COMPLETE (eager emission) is "
        "order-dependent across shards; use EMIT ON WINDOW CLOSE or "
        "EMIT EVERY n EVENTS");
  }
  if (!plan->into_stream.empty()) {
    return Status::InvalidArgument(
        "sharded engine: EMIT INTO derived streams are not supported "
        "(re-ingestion would create cross-shard feedback)");
  }

  ShardMergeOptions merge;
  merge.by_score =
      plan->score != nullptr && options.ranker != RankerPolicy::kPassthrough;
  merge.desc = plan->rank_desc;
  merge.limit = plan->limit < 0 ? static_cast<size_t>(-1)
                                : static_cast<size_t>(plan->limit);

  auto q = std::make_unique<QueryState>(
      std::move(name), plan, options, sink,
      ShardRouter(*plan, num_shards_, queries_.size()),
      ReportWindowAssigner::ForQuery(*plan), merge);
  q->text = std::string(query_text);
  q->pending.resize(num_shards_);
  const uint32_t qi = static_cast<uint32_t>(queries_.size());
  if (options_.shared_eval) {
    bool deduped = false;
    q->nfa_template = template_registry_.Intern(*plan, &deduped);
    if (deduped) queries_deduped_.Increment();
    if (options.matcher.fault_injector != nullptr) query_injector_ = true;
    // Index the query's entry predicates on its stream (registration is
    // pre-start, so the global query index is a stable key).
    const auto sit = streams_.find(ToLower(plan->schema()->name()));
    if (sit != streams_.end()) sit->second.index.AddQuery(qi, plan.get());
  }
  query_index_.emplace(key, qi);
  queries_.push_back(std::move(q));
  // Journal the deploy (pre-merge options, like the snapshot) so a
  // registration after the last checkpoint survives a crash.
  if (wal_ != nullptr && !replaying_) {
    BinWriter blob;
    blob.Str(std::string(query_text));
    SaveQueryOptions(&blob, options);
    CEPR_RETURN_IF_ERROR(
        wal_->AppendDeploy(queries_.back()->name, blob.buffer()));
    wal_appended_.Increment();
  }
  return Status::OK();
}

std::vector<std::string> ShardedEngine::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& q : queries_) names.push_back(q->name);
  return names;
}

void ShardedEngine::StartWorkers() {
  BuildShards();
  SpawnWorkers();
}

void ShardedEngine::BuildShards() {
  shards_.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
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
      MatcherOptions matcher_options = MergeEngineCaps(
          q->options.matcher, options_.max_runs_per_partition,
          options_.max_total_runs, options_.shed_policy, options_.fault_policy,
          options_.fault_injector);
      if (matcher_options.max_total_runs > 0) {
        // Each shard enforces its even share of the engine-wide budget
        // against its own live-run counter (shard threads never touch each
        // other's state).
        matcher_options.max_total_runs =
            std::max<size_t>(1, matcher_options.max_total_runs / num_shards_);
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

void ShardedEngine::SpawnWorkers() {
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s]->thread = std::thread([this, s] { ShardMain(s); });
  }
  started_.store(true, std::memory_order_release);
}

Status ShardedEngine::Quiesce() {
  // Nothing to drain before the first Push; after Finish the workers are
  // joined (the join is the happens-before edge a quiesce would provide).
  if (!WorkersStarted() || finished_) return Status::OK();
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

Status ShardedEngine::Enqueue(Shard* shard, Message msg) {
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

void ShardedEngine::PublishResults(Shard* shard, uint32_t query,
                                   std::vector<RankedResult> results) {
  if (results.empty()) return;
  shard->metrics.batches_published.Increment();
  std::lock_guard<std::mutex> lock(shard->mu);
  auto& out = shard->published[query];
  for (RankedResult& r : results) out.push_back(std::move(r));
}

void ShardedEngine::ShardMain(size_t shard_index) {
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

void ShardedEngine::RecordTimings(Shard* shard, uint32_t query,
                                  int64_t processing_ns,
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

void ShardedEngine::RecordFault(const Status& status) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (first_fault_.ok()) {
    first_fault_ = status;
    faulted_.store(true, std::memory_order_release);
  }
}

Status ShardedEngine::first_fault() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return first_fault_;
}

Result<ShardedEngine::StreamState*> ShardedEngine::OfferEvent(
    Event event, std::vector<Event>* released) {
  if (finished_) {
    return Status::InvalidArgument("sharded engine is finished");
  }
  if (faulted_.load(std::memory_order_acquire)) {
    return first_fault();
  }
  if (event.schema() == nullptr) {
    return Status::InvalidArgument("event has no schema");
  }
  const auto it = streams_.find(ToLower(event.schema()->name()));
  if (it == streams_.end()) {
    return Status::NotFound("event stream '" + event.schema()->name() +
                            "' is not registered");
  }
  StreamState& state = it->second;
  if (event.schema() != state.schema) {
    return Status::InvalidArgument(
        "event schema object does not match the registered schema for "
        "stream '" +
        state.schema->name() + "'");
  }
  if (event.values().size() != state.schema->num_attributes()) {
    return Status::InvalidArgument("event arity mismatch for stream '" +
                                   state.schema->name() + "'");
  }
  // Journal the arrival before any state changes (same contract as the
  // serial engine: late-rejected events are journaled — replay reproduces
  // the verdict — and a failed append means the arrival never happened).
  if (wal_ != nullptr && !replaying_) {
    CEPR_RETURN_IF_ERROR(wal_->AppendEvent(state.schema->name(), event));
    wal_appended_.Increment();
  }
  const Timestamp offered_ts = event.timestamp();
  switch (state.reorder.Offer(std::move(event), released)) {
    case ReorderBuffer::Verdict::kLateRejected:
      return Status::InvalidArgument(
          "out-of-order event on stream '" + state.schema->name() + "': ts " +
          std::to_string(offered_ts) + " < watermark " +
          std::to_string(state.reorder.watermark()) +
          (state.reorder.config().max_lateness_micros > 0
               ? " (missed the lateness bound of " +
                     std::to_string(state.reorder.config().max_lateness_micros) +
                     "us)"
               : ""));
    case ReorderBuffer::Verdict::kLateDropped:
      // Counted in events_late_dropped; the stream proceeds (released stays
      // empty, so the caller routes nothing).
      break;
    case ReorderBuffer::Verdict::kAccepted:
      break;
  }
  return &state;
}

Status ShardedEngine::Push(Event event) {
  std::vector<Event> released;
  CEPR_ASSIGN_OR_RETURN(StreamState * state,
                        OfferEvent(std::move(event), &released));
  for (Event& e : released) {
    CEPR_RETURN_IF_ERROR(RouteReleased(*state, std::move(e)));
  }
  return Status::OK();
}

Status ShardedEngine::RouteReleased(StreamState& state, Event event) {
  // One predicate-index probe per released event: the router tags each
  // per-query message with the verdict so shards can skip matcher visits
  // that are provably no-ops (docs/MULTIQUERY.md). Degraded (everything a
  // candidate) while a fault injector is armed.
  const bool use_index = shared_eval_active() && state.index.num_queries() > 0;
  std::vector<uint32_t>& cand = state.cand_scratch;
  cand.clear();
  if (use_index) state.index.Probe(event, &cand);

  event.set_sequence(state.next_sequence++);
  events_ingested_.Increment();

  if (!WorkersStarted()) StartWorkers();

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

Status ShardedEngine::PushAll(std::vector<Event> events) {
  for (size_t i = 0; i < events.size(); ++i) {
    const Status s = Push(std::move(events[i]));
    if (s.ok()) continue;
    if (options_.fault_policy == FaultPolicy::kSkipAndCount &&
        s.code() != StatusCode::kUnavailable) {
      // Contained per-event failure: count it and keep the batch flowing.
      // A tripped stall budget (kUnavailable) is an engine-level outage,
      // not a poison event — it always surfaces.
      events_quarantined_.Increment();
      continue;
    }
    return Status(s.code(), "PushAll: event at index " + std::to_string(i) +
                                " of " + std::to_string(events.size()) +
                                " failed (prefix [0, " + std::to_string(i) +
                                ") already ingested): " + s.message());
  }
  return Status::OK();
}

void ShardedEngine::DrainReady(QueryState* q, uint32_t query_index,
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
  // produced results for are skipped — the serial engine emits nothing for
  // them either).
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
    merge_windows_.Increment();
    merge_results_.Add(merged.size());
    q->results_delivered.Add(merged.size());
    if (q->sink != nullptr) {
      for (const RankedResult& r : merged) q->sink->OnResult(r);
    }
  }
  if (!final) q->merged_upto = complete;
}

Status ShardedEngine::Flush() {
  if (finished_) {
    return Status::InvalidArgument("sharded engine is finished");
  }
  // A flush moves the release frontier; journal it so replay reproduces it
  // at the same position.
  if (wal_ != nullptr && !replaying_) {
    CEPR_RETURN_IF_ERROR(wal_->AppendFlush());
    wal_appended_.Increment();
  }
  for (auto& [key, state] : streams_) {
    if (state.reorder.resident() == 0) continue;
    std::vector<Event> released;
    state.reorder.Flush(&released);
    for (Event& e : released) {
      CEPR_RETURN_IF_ERROR(RouteReleased(state, std::move(e)));
    }
  }
  return Status::OK();
}

void ShardedEngine::Finish() {
  if (finished_) return;
  // Resident (still-unreleased) events must reach the shards before the
  // kFinish flush closes their windows.
  const Status drained = Flush();
  if (!drained.ok()) {
    CEPR_LOG(WARNING) << "Finish: reorder flush failed: "
                      << drained.ToString();
  }
  finished_ = true;
  if (!WorkersStarted()) return;  // no events: nothing buffered anywhere
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
  if (degraded) {
    abort_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->park_mu);
      shard->park_cv.notify_one();
    }
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
    DrainReady(queries_[qi].get(), qi, /*final=*/true);
  }
}

std::vector<ShardStats> ShardedEngine::shard_stats() const {
  std::vector<ShardStats> out;
  if (!WorkersStarted()) return out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->metrics.Snapshot());
  }
  return out;
}

MergeStats ShardedEngine::merge_stats() const {
  MergeStats m;
  m.windows_merged = merge_windows_.Load();
  m.results_emitted = merge_results_.Load();
  return m;
}

QueryMetrics ShardedEngine::AggregateQueryMetrics(uint32_t query_index) const {
  const QueryState& q = *queries_[query_index];
  QueryMetrics m;
  m.events = q.ordinal.Load();
  m.results = q.results_delivered.Load();
  if (!WorkersStarted()) return m;
  for (const auto& shard : shards_) {
    const QueryCell& cell = shard->cells[query_index];
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
    const MetricsCell::Timings& t = shard->metrics.timings[query_index];
    m.event_processing_ns.Merge(t.processing_ns);
    m.emission_delay_us.Merge(t.emission_delay_us);
  }
  return m;
}

Result<QueryMetrics> ShardedEngine::GetQueryMetrics(
    std::string_view name) const {
  const auto it = query_index_.find(ToLower(name));
  if (it == query_index_.end()) {
    return Status::NotFound("no query named '" + std::string(name) + "'");
  }
  return AggregateQueryMetrics(it->second);
}

MetricsSnapshot ShardedEngine::Snapshot() const {
  MetricsSnapshot snap;
  snap.events_ingested = events_ingested_.Load();
  snap.events_quarantined = events_quarantined_.Load();
  // The reorder buffers live on the ingest thread but their counters are
  // single-writer atomics, so a monitor-thread snapshot is safe (streams_
  // itself is not mutated after the pre-start registration phase).
  for (const auto& [key, state] : streams_) {
    snap.reorder.Accumulate(state.reorder.stats());
  }
  snap.num_shards = num_shards_;
  snap.queries.reserve(queries_.size());
  for (uint32_t qi = 0; qi < queries_.size(); ++qi) {
    snap.queries.push_back({queries_[qi]->name, AggregateQueryMetrics(qi)});
  }
  snap.shards = shard_stats();
  snap.merge = merge_stats();
  snap.sharing.shared_eval = shared_eval_active();
  snap.sharing.queries_deduped = queries_deduped_.Load();
  snap.sharing.live_templates = template_registry_.live_templates();
  for (const auto& [key, state] : streams_) {
    snap.sharing.predindex_probes += state.index.probes();
    snap.sharing.predindex_candidates += state.index.candidates();
  }
  for (const auto& q : queries_) {
    snap.sharing.bytecode_compiled_preds +=
        static_cast<uint64_t>(q->plan->num_bytecode_programs);
  }
  // Window boundaries are already tracked once per query on the router
  // (the barrier broadcast), not per (query, shard): there is no separate
  // shared window-buffer structure to count in this mode.
  snap.sharing.shared_window_buffers = 0;
  snap.durability = durability();
  return snap;
}

}  // namespace cepr
