#include "runtime/engine.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "common/strings.h"
#include "lang/parser.h"
#include "plan/compiler.h"
#include "runtime/serde.h"
#include "runtime/shard_backend.h"

namespace cepr {

Engine::Engine(EngineOptions options) : options_(options) {
  if (options_.num_shards > 0) shards_ = std::make_unique<ShardBackend>(this);
}

Engine::~Engine() = default;

Status Engine::ExecuteDdl(std::string_view ddl_text) {
  CEPR_ASSIGN_OR_RETURN(CreateStreamAst ast, ParseCreateStream(ddl_text));
  CEPR_ASSIGN_OR_RETURN(SchemaPtr schema,
                        Schema::Make(ast.name, std::move(ast.attributes)));
  return RegisterSchema(std::move(schema));
}

Status Engine::RegisterSchema(SchemaPtr schema) {
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
    durability_.wal_records_appended.Increment();
  }
  return Status::OK();
}

Status Engine::ConfigureStreamIngest(std::string_view stream_name,
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

Result<SchemaPtr> Engine::GetSchema(std::string_view stream_name) const {
  const auto it = streams_.find(ToLower(stream_name));
  if (it == streams_.end()) {
    return Status::NotFound("no stream named '" + std::string(stream_name) + "'");
  }
  return it->second.schema;
}

std::vector<std::string> Engine::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [key, state] : streams_) names.push_back(state.schema->name());
  return names;
}

Status Engine::RegisterQuery(std::string name, std::string_view query_text,
                             const QueryOptions& options, Sink* sink) {
  if (shards_ != nullptr) CEPR_RETURN_IF_ERROR(shards_->CheckNotStarted());
  const std::string key = ToLower(name);
  if (queries_.count(key) > 0) {
    return Status::AlreadyExists("query '" + name + "' is already registered");
  }
  CEPR_ASSIGN_OR_RETURN(QueryAst ast, ParseQuery(query_text));
  CEPR_ASSIGN_OR_RETURN(SchemaPtr schema, GetSchema(ast.stream_name));
  CEPR_ASSIGN_OR_RETURN(AnalyzedQuery analyzed, Analyze(std::move(ast), schema));
  CEPR_ASSIGN_OR_RETURN(CompiledQueryPtr plan, Compile(std::move(analyzed)));

  RunningQuery::ForwardFn forward;
  if (shards_ != nullptr) {
    CEPR_RETURN_IF_ERROR(ShardBackend::CheckPlan(*plan));
  } else if (!plan->into_stream.empty()) {
    if (EqualsIgnoreCase(plan->into_stream, plan->schema()->name())) {
      return Status::InvalidArgument(
          "EMIT INTO cannot target the query's own input stream");
    }
    CEPR_ASSIGN_OR_RETURN(forward, MakeForwarder(plan));
  }

  QueryOptions effective = options;
  effective.matcher = MergeEngineCaps(
      options.matcher, options_.max_runs_per_partition, options_.max_total_runs,
      options_.shed_policy, options_.fault_policy, options_.fault_injector);
  std::shared_ptr<const NfaTemplate> nfa_template;
  if (options_.shared_eval) {
    bool deduped = false;
    nfa_template = template_registry_.Intern(*plan, &deduped);
    if (deduped) queries_deduped_.Increment();
    // Injected fault schedules count matcher visits; only full per-query
    // visits reproduce the per-query path's positions exactly. The shard
    // backend counts the engine's own injector in shared_eval_active().
    const MatcherOptions& armed =
        shards_ != nullptr ? options.matcher : effective.matcher;
    if (armed.fault_injector != nullptr) degraded_faults_ = true;
  }

  QueryEntry& entry = queries_[key];
  entry.name = name;
  // Keep the original (pre-merge) registration inputs: a checkpoint stores
  // them so Restore can re-register the query under its own engine caps.
  entry.text = std::string(query_text);
  entry.options = options;
  entry.id = next_query_id_++;
  if (shards_ != nullptr) {
    // Index the query's entry predicates on its stream, keyed by query id.
    if (options_.shared_eval) {
      StreamOf(plan)->shared.index.AddQuery(entry.id, plan.get());
    }
    shards_->AddQuery(entry.id, std::move(name), plan, effective, sink,
                      std::move(nfa_template));
  } else {
    entry.running = std::make_unique<RunningQuery>(
        std::move(name), plan, effective, sink, std::move(forward),
        &live_runs_);
    if (options_.shared_eval) {
      entry.running->set_nfa_template(std::move(nfa_template));
      StreamState* stream = StreamOf(plan);
      entry.running->BindSharedStream(&stream->next_sequence,
                                      stream->next_sequence);
      RebuildSharedStream(*stream);
    }
  }
  // Journal the deploy (pre-merge options, like the snapshot) so a hot
  // deploy between checkpoints survives a crash at its stream position.
  if (wal_ != nullptr && !replaying_) {
    BinWriter blob;
    blob.Str(entry.text);
    SaveQueryOptions(&blob, options);
    CEPR_RETURN_IF_ERROR(wal_->AppendDeploy(entry.name, blob.buffer()));
    durability_.wal_records_appended.Increment();
  }
  return Status::OK();
}

Engine::StreamState* Engine::StreamOf(const CompiledQueryPtr& plan) {
  const auto it = streams_.find(ToLower(plan->schema()->name()));
  return it == streams_.end() ? nullptr : &it->second;
}

void Engine::RebuildSharedStream(StreamState& state) {
  SharedStreamState& sh = state.shared;
  sh.by_slot.clear();
  sh.index.Clear();
  sh.hot.clear();
  sh.window_groups.clear();
  // queries_ is name-ordered, so slots come out name-sorted: the predicate
  // index's ascending-slot candidate lists are already in visit order.
  uint32_t slot = 0;
  for (auto& [key, entry] : queries_) {
    RunningQuery* query = entry.running.get();
    if (query->plan()->schema() != state.schema) continue;
    sh.by_slot.push_back(query);
    sh.index.AddQuery(slot, query->plan().get());
    if (query->active_runs() > 0) sh.hot.insert(slot);
    const ReportWindowAssigner& w = query->emitter().windows();
    if (w.mode() == ReportWindowAssigner::Mode::kTime) {
      sh.window_groups[{0, w.span(), 0}].slots.push_back(slot);
    } else if (w.mode() == ReportWindowAssigner::Mode::kCount) {
      // Queries whose per-query ordinals agree mod n cross count-window
      // boundaries at the same stream positions.
      const int64_t n = w.every_n();
      const int64_t off =
          static_cast<int64_t>(query->registration_offset() %
                               static_cast<uint64_t>(n));
      sh.window_groups[{1, n, off}].slots.push_back(slot);
    }
    // kSingle windows never close on progress; no group needed.
    ++slot;
  }
}

Result<RunningQuery::ForwardFn> Engine::MakeForwarder(
    const CompiledQueryPtr& plan) {
  // The derived stream's schema is the query's output row.
  std::vector<Attribute> attributes;
  for (size_t i = 0; i < plan->analyzed.output_names.size(); ++i) {
    attributes.push_back(Attribute{plan->analyzed.output_names[i],
                                   plan->analyzed.output_types[i], std::nullopt});
  }
  SchemaPtr derived;
  auto existing = GetSchema(plan->into_stream);
  if (existing.ok()) {
    // Validate the existing stream's shape against the query's outputs.
    derived = existing.value();
    if (derived->num_attributes() != attributes.size()) {
      return Status::InvalidArgument(
          "EMIT INTO " + plan->into_stream + ": stream has " +
          std::to_string(derived->num_attributes()) + " attributes but the "
          "query produces " + std::to_string(attributes.size()));
    }
    for (size_t i = 0; i < attributes.size(); ++i) {
      if (!EqualsIgnoreCase(derived->attribute(i).name, attributes[i].name) ||
          derived->attribute(i).type != attributes[i].type) {
        return Status::InvalidArgument(
            "EMIT INTO " + plan->into_stream + ": attribute " +
            std::to_string(i) + " mismatch (stream has " +
            derived->attribute(i).name + " " +
            ValueTypeToString(derived->attribute(i).type) + ", query produces " +
            attributes[i].name + " " + ValueTypeToString(attributes[i].type) +
            ")");
      }
    }
  } else {
    CEPR_ASSIGN_OR_RETURN(derived,
                          Schema::Make(plan->into_stream, std::move(attributes)));
    CEPR_RETURN_IF_ERROR(RegisterSchema(derived));
    // Derived streams (EMIT INTO) receive score-ordered results whose event
    // times may interleave; they clamp instead of rejecting.
    streams_[ToLower(plan->into_stream)].reorder.set_config(
        ReorderConfig{0, LatePolicy::kClamp});
  }

  return RunningQuery::ForwardFn([this, derived](const RankedResult& r) {
    Event event(derived, r.match.last_ts, r.match.row);
    const Status s = Push(std::move(event));
    if (!s.ok()) {
      CEPR_LOG(WARNING) << "derived-stream push into " << derived->name()
                        << " failed: " << s.ToString();
    }
  });
}

Status Engine::RemoveQuery(std::string_view name) {
  if (shards_ != nullptr) return ShardBackend::CheckRemove();
  const auto it = queries_.find(ToLower(name));
  if (it == queries_.end()) {
    return Status::NotFound("no query named '" + std::string(name) + "'");
  }
  it->second.running->Finish();
  StreamState* stream =
      options_.shared_eval ? StreamOf(it->second.running->plan()) : nullptr;
  // Erasing drops the query's template reference: the last sharer of a
  // signature frees the interned NfaTemplate (weak registry entry).
  queries_.erase(it);
  if (stream != nullptr) RebuildSharedStream(*stream);
  if (wal_ != nullptr && !replaying_) {
    CEPR_RETURN_IF_ERROR(wal_->AppendUndeploy(std::string(name)));
    durability_.wal_records_appended.Increment();
  }
  return Status::OK();
}

Result<const RunningQuery*> Engine::GetQuery(std::string_view name) const {
  const auto it = queries_.find(ToLower(name));
  if (it == queries_.end()) {
    return Status::NotFound("no query named '" + std::string(name) + "'");
  }
  if (it->second.running == nullptr) {
    return Status::Unimplemented(
        "the shard backend keeps one cell per shard; use GetQueryMetrics");
  }
  return static_cast<const RunningQuery*>(it->second.running.get());
}

std::vector<std::string> Engine::QueryNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& [key, entry] : queries_) names.push_back(entry.name);
  return names;
}

Result<QueryMetrics> Engine::GetQueryMetrics(std::string_view name) const {
  const auto it = queries_.find(ToLower(name));
  if (it == queries_.end()) {
    return Status::NotFound("no query named '" + std::string(name) + "'");
  }
  if (shards_ != nullptr) return shards_->AggregateQueryMetrics(it->second.id);
  return it->second.running->metrics();
}

MetricsSnapshot Engine::Snapshot() const {
  MetricsSnapshot snap;
  snap.events_ingested = events_ingested_.Load();
  snap.events_quarantined = events_quarantined_.Load();
  snap.sharing.shared_eval = shared_eval_active();
  snap.sharing.queries_deduped = queries_deduped_.Load();
  snap.sharing.live_templates = template_registry_.live_templates();
  // Reorder and index counters are single-writer atomics, so a monitor
  // thread may read them mid-stream (streams_ itself is not mutated after
  // the shard backend's registration phase).
  for (const auto& [key, state] : streams_) {
    snap.reorder.Accumulate(state.reorder.stats());
    snap.sharing.predindex_probes += state.shared.index.probes();
    snap.sharing.predindex_candidates += state.shared.index.candidates();
    snap.sharing.shared_window_buffers += state.shared.window_groups.size();
  }
  snap.durability = durability();
  if (shards_ != nullptr) {
    shards_->FillSnapshot(&snap);
    return snap;
  }
  snap.queries.reserve(queries_.size());
  for (const auto& [key, entry] : queries_) {
    const RunningQuery& query = *entry.running;
    snap.sharing.bytecode_compiled_preds += static_cast<uint64_t>(
        query.plan()->num_bytecode_programs);
    snap.queries.push_back({query.name(), query.metrics()});
  }
  return snap;
}

Status Engine::first_fault() const {
  return shards_ != nullptr ? shards_->first_fault() : Status::OK();
}

std::vector<ShardStats> Engine::shard_stats() const {
  return shards_ != nullptr ? shards_->shard_stats()
                            : std::vector<ShardStats>{};
}

MergeStats Engine::merge_stats() const {
  return shards_ != nullptr ? shards_->merge_stats() : MergeStats{};
}

Result<Engine::StreamState*> Engine::OfferEvent(Event event,
                                                std::vector<Event>* released) {
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
    return Status::InvalidArgument("event schema object does not match the "
                                   "registered schema for stream '" +
                                   state.schema->name() + "'");
  }
  if (event.values().size() != state.schema->num_attributes()) {
    return Status::InvalidArgument("event arity mismatch for stream '" +
                                   state.schema->name() + "'");
  }

  // Journal the arrival before any state changes. Only top-level arrivals
  // are logged: derived-stream re-ingestion (push_depth_ > 0) is
  // regenerated deterministically by replaying its inputs, and replayed
  // records must not re-journal themselves. Late-rejected events ARE
  // journaled — the append precedes the verdict — so replay reproduces the
  // identical rejection at the identical position. On an append failure
  // (torn tail = simulated crash) the event is NOT applied: the dead
  // process and the recovered one agree the arrival never happened.
  if (wal_ != nullptr && !replaying_ && push_depth_ == 0) {
    CEPR_RETURN_IF_ERROR(wal_->AppendEvent(state.schema->name(), event));
    durability_.wal_records_appended.Increment();
  }

  const Timestamp offered_ts = event.timestamp();
  switch (state.reorder.Offer(std::move(event), released)) {
    case ReorderBuffer::Verdict::kLateRejected:
      return Status::InvalidArgument(
          "out-of-order event on stream '" + state.schema->name() +
          "': ts " + std::to_string(offered_ts) + " < watermark " +
          std::to_string(state.reorder.watermark()) +
          (state.reorder.config().max_lateness_micros > 0
               ? " (missed the lateness bound of " +
                     std::to_string(state.reorder.config().max_lateness_micros) +
                     "us)"
               : ""));
    case ReorderBuffer::Verdict::kLateDropped:
      // Counted in events_late_dropped; the stream proceeds.
      break;
    case ReorderBuffer::Verdict::kAccepted:
      break;
  }
  return &state;
}

Status Engine::Push(Event event) {
  // The one backend branch on the inline per-event path.
  if (shards_ != nullptr) return shards_->Push(std::move(event));
  std::vector<Event> released;
  CEPR_ASSIGN_OR_RETURN(StreamState * state,
                        OfferEvent(std::move(event), &released));
  return Route(*state, std::move(released));
}

Status Engine::Route(StreamState& state, std::vector<Event> released) {
  for (Event& event : released) {
    Stamp(state, event);

    if (push_depth_ >= kMaxPushDepth) {
      return Status::InvalidArgument(
          "derived-stream recursion exceeds depth " +
          std::to_string(kMaxPushDepth) + " (query composition cycle?)");
    }
    ++push_depth_;
    const auto shared = std::make_shared<const Event>(std::move(event));
    // shared_eval_active() without its shard-backend term.
    const Status s = options_.shared_eval && !degraded_faults_
                         ? RouteShared(state, shared)
                         : RouteAll(state, shared);
    --push_depth_;
    // Only kFailFast faults surface here (kSkipAndCount is contained
    // inside the matcher); the event was ingested, the stream stops.
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status Engine::RouteAll(StreamState& state, const EventPtr& event) {
  for (auto& [key, entry] : queries_) {
    RunningQuery* query = entry.running.get();
    if (query->plan()->schema() != state.schema) continue;
    Status s;
    if (options_.shared_eval) {
      // Degraded shared mode: full visits, but ordinals stay derived from
      // the stream position (the query never self-counts in shared mode).
      bool evaluated = false;
      s = query->OnEventAt(event,
                           event->sequence() - query->registration_offset(),
                           /*candidate=*/true, &evaluated);
    } else {
      s = query->OnEvent(event);
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status Engine::RouteShared(StreamState& state, const EventPtr& event) {
  SharedStreamState& sh = state.shared;
  const uint64_t seq = event->sequence();
  const Timestamp ts = event->timestamp();

  // Scratch is swapped out for the duration of the call: a query's EMIT
  // INTO forwarding can re-enter Route (even for this stream, through a
  // composition cycle) and must not clobber the vectors we iterate.
  std::vector<uint32_t> cand;
  cand.swap(sh.cand_scratch);
  cand.clear();
  std::vector<uint32_t> due;
  due.swap(sh.due_scratch);
  due.clear();

  // 1. Which queries can this event begin a run for?
  sh.index.Probe(*event, &cand);

  // 2. Which skipped queries have a buffered report window closing here?
  // One boundary check per window scheme, not per query.
  for (auto& [group_key, group] : sh.window_groups) {
    const int64_t boundary =
        std::get<0>(group_key) == 0
            ? ts / std::get<1>(group_key)
            : static_cast<int64_t>(
                  (seq - static_cast<uint64_t>(std::get<2>(group_key))) /
                  static_cast<uint64_t>(std::get<1>(group_key)));
    if (boundary <= group.last) continue;
    group.last = boundary;
    for (const uint32_t slot : group.slots) {
      if (sh.by_slot[slot]->has_pending_window()) due.push_back(slot);
    }
  }
  std::sort(due.begin(), due.end());

  // 3. Visit candidates ∪ hot ∪ due ascending (= name order, the classic
  // path's delivery interleaving). Build the list first: visits mutate the
  // hot set.
  struct Visit {
    uint32_t slot;
    bool candidate;
    bool was_hot;
  };
  std::vector<Visit> visits;
  visits.reserve(cand.size() + sh.hot.size() + due.size());
  {
    auto ci = cand.begin();
    auto hi = sh.hot.begin();
    auto di = due.begin();
    while (ci != cand.end() || hi != sh.hot.end() || di != due.end()) {
      uint32_t next = UINT32_MAX;
      if (ci != cand.end()) next = std::min(next, *ci);
      if (hi != sh.hot.end()) next = std::min(next, *hi);
      if (di != due.end()) next = std::min(next, *di);
      Visit v{next, false, false};
      if (ci != cand.end() && *ci == next) {
        v.candidate = true;
        ++ci;
      }
      if (hi != sh.hot.end() && *hi == next) {
        v.was_hot = true;
        ++hi;
      }
      if (di != due.end() && *di == next) ++di;
      visits.push_back(v);
    }
  }

  Status failed = Status::OK();
  for (const Visit& v : visits) {
    RunningQuery* query = sh.by_slot[v.slot];
    if (!v.candidate && !v.was_hot) {
      // Window-due only: pure report-window progress, no matcher work.
      query->AdvanceWindows(ts, seq - query->registration_offset());
      continue;
    }
    bool evaluated = false;
    const Status s = query->OnEventAt(
        event, seq - query->registration_offset(), v.candidate, &evaluated);
    const bool now_hot = query->active_runs() > 0;
    if (now_hot != v.was_hot) {
      if (now_hot) {
        sh.hot.insert(v.slot);
      } else {
        sh.hot.erase(v.slot);
      }
    }
    if (!s.ok()) {
      failed = s;
      break;
    }
  }

  cand.swap(sh.cand_scratch);
  due.swap(sh.due_scratch);
  return failed;
}

Status Engine::Flush() {
  if (shards_ != nullptr) CEPR_RETURN_IF_ERROR(shards_->CheckNotFinished());
  // A flush moves the release frontier, so replay must reproduce it at the
  // same journal position (Finish's flush rounds included — the markers are
  // idempotent against drained buffers).
  if (wal_ != nullptr && !replaying_) {
    CEPR_RETURN_IF_ERROR(wal_->AppendFlush());
    durability_.wal_records_appended.Increment();
  }
  for (auto& [key, state] : streams_) {
    if (state.reorder.resident() == 0) continue;
    std::vector<Event> released;
    state.reorder.Flush(&released);
    CEPR_RETURN_IF_ERROR(shards_ != nullptr
                             ? shards_->Route(state, std::move(released))
                             : Route(state, std::move(released)));
  }
  return Status::OK();
}

Status Engine::PushAll(std::vector<Event> events, size_t first_index,
                       size_t batch_size) {
  if (batch_size == 0) batch_size = events.size();
  for (size_t i = 0; i < events.size(); ++i) {
    const Status s = Push(std::move(events[i]));
    if (s.ok()) continue;
    // Contained per-event failure: count it and keep the batch flowing. A
    // tripped shard stall budget (kUnavailable) is an engine-level outage,
    // not a poison event — it always surfaces.
    if (options_.fault_policy == FaultPolicy::kSkipAndCount &&
        (shards_ == nullptr || s.code() != StatusCode::kUnavailable)) {
      events_quarantined_.Increment();
      continue;
    }
    const std::string at = std::to_string(first_index + i);
    return Status(s.code(), "PushAll: event at index " + at + " of " +
                                std::to_string(batch_size) +
                                " failed (prefix [0, " + at +
                                ") already ingested): " + s.message());
  }
  return Status::OK();
}

void Engine::Finish() {
  if (shards_ != nullptr) {
    shards_->Finish();
    return;
  }
  // Flushing a query may forward results into derived streams, waking
  // downstream queries that may themselves need another flush; iterate to a
  // fixpoint (bounded by the composition-depth cap). Each round first
  // drains the reorder buffers so resident (still-unreleased) events reach
  // the queries before their windows close.
  for (int round = 0; round <= kMaxPushDepth; ++round) {
    const uint64_t before = events_ingested_.Load();
    const Status flushed = Flush();
    if (!flushed.ok()) {
      CEPR_LOG(WARNING) << "Finish: reorder flush failed: "
                        << flushed.ToString();
    }
    for (auto& [key, entry] : queries_) entry.running->Finish();
    if (events_ingested_.Load() == before) return;
  }
}

}  // namespace cepr
