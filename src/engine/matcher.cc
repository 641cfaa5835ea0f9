#include "engine/matcher.h"

#include <algorithm>
#include <limits>

#include "common/binio.h"
#include "common/logging.h"
#include "common/strings.h"
#include "runtime/serde.h"

namespace cepr {

const char* ShedPolicyToString(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNew:
      return "RejectNew";
    case ShedPolicy::kShedOldest:
      return "ShedOldest";
    case ShedPolicy::kShedLowestScoreBound:
      return "ShedLowestScoreBound";
  }
  return "Unknown";
}

MatcherOptions MergeEngineCaps(MatcherOptions base, size_t max_runs_per_partition,
                               size_t max_total_runs, ShedPolicy shed_policy,
                               FaultPolicy fault_policy,
                               const FaultInjector* fault_injector) {
  if (max_runs_per_partition > 0) {
    base.max_active_runs = std::min(base.max_active_runs, max_runs_per_partition);
  }
  if (max_total_runs > 0) {
    base.max_total_runs = base.max_total_runs > 0
                              ? std::min(base.max_total_runs, max_total_runs)
                              : max_total_runs;
  }
  if (shed_policy != ShedPolicy::kShedOldest) base.shed_policy = shed_policy;
  if (fault_policy != FaultPolicy::kFailFast) base.fault_policy = fault_policy;
  if (fault_injector != nullptr) base.fault_injector = fault_injector;
  return base;
}

Matcher::Matcher(CompiledQueryPtr plan, const MatcherOptions& options,
                 const RunPruner* pruner, AtomicMatcherStats* stats,
                 uint64_t* next_match_id, size_t* live_runs, RunMemory* memory)
    : plan_(std::move(plan)),
      options_(options),
      pruner_(pruner),
      stats_(stats),
      next_match_id_(next_match_id),
      live_runs_(live_runs),
      memory_(memory),
      pred_cache_(static_cast<size_t>(plan_->pattern.num_event_preds), -1) {
  if (memory_ == nullptr) {
    owned_memory_ = std::make_unique<RunMemory>(plan_.get());
    memory_ = owned_memory_.get();
  }
}

Matcher::~Matcher() {
  if (live_runs_ != nullptr) *live_runs_ -= runs_.size();
  ReleaseGroups();
}

void Matcher::ReleaseGroups() {
  for (DagGroup& g : groups_) memory_->dag->Unref(g.head);
  groups_.clear();
  dag_group_owners_.clear();
}

bool Matcher::TypeMatches(const std::string& tag, const Event& event) const {
  return tag.empty() || EqualsIgnoreCase(tag, event.type_tag());
}

bool Matcher::EvalPred(const Run& run, const BytecodeProgram& prog,
                       int cache_id, int var_index, const Event& event) const {
  if (cache_id >= 0) return CachedVerdict(prog, cache_id, var_index, event);
  // Correlated conjunct: evaluate against the run, which answers
  // `var_index` with the installed candidate.
  auto r = VmEvaluatePredicate(prog, run, &vm_);
  return r.ok() && r.value();
}

bool Matcher::CachedVerdict(const BytecodeProgram& prog, int cache_id,
                            int var_index, const Event& event) const {
  int8_t& slot = pred_cache_[static_cast<size_t>(cache_id)];
  if (slot < 0) {
    // First consult this event: compute once under an EventOnlyContext —
    // provably the same verdict a run evaluation would produce (the
    // conjunct references nothing but the candidate event).
    EventOnlyContext ctx(var_index, &event);
    auto r = VmEvaluatePredicate(prog, ctx, &vm_);
    slot = (r.ok() && r.value()) ? 1 : 0;
    stats_->predcache_misses.Increment();
  } else {
    stats_->predcache_hits.Increment();
  }
  return slot == 1;
}

bool Matcher::PassesBegin(Run* run, int comp_index, const Event& event) const {
  const CompiledComponent& comp =
      plan_->pattern.components[static_cast<size_t>(comp_index)];
  if (comp.is_kleene) return PassesIter(run, comp_index, event);
  run->SetCandidate(comp.var_index, &event);
  bool ok = true;
  for (size_t i = 0; i < comp.begin_preds.size(); ++i) {
    if (!EvalPred(*run, *comp.begin_pred_progs[i], comp.begin_pred_cache_ids[i],
                  comp.var_index, event)) {
      ok = false;
      break;
    }
  }
  run->ClearCandidate();
  return ok;
}

bool Matcher::PassesIter(Run* run, int comp_index, const Event& event) const {
  const CompiledComponent& comp =
      plan_->pattern.components[static_cast<size_t>(comp_index)];
  const bool first_iteration = run->KleeneCount(comp.var_index) == 0;
  run->SetCandidate(comp.var_index, &event);
  bool ok = true;
  for (size_t i = 0; i < comp.iter_preds.size(); ++i) {
    // Conjuncts referencing v[i-1] are vacuous for the first iteration.
    if (first_iteration && comp.iter_pred_uses_prev[i]) continue;
    if (!EvalPred(*run, *comp.iter_pred_progs[i], comp.iter_pred_cache_ids[i],
                  comp.var_index, event)) {
      ok = false;
      break;
    }
  }
  run->ClearCandidate();
  return ok;
}

bool Matcher::PassesExit(Run* run, int comp_index) const {
  const CompiledComponent& comp =
      plan_->pattern.components[static_cast<size_t>(comp_index)];
  if (comp.is_kleene && run->KleeneCount(comp.var_index) < comp.min_iters) {
    return false;
  }
  for (const BytecodeProgramPtr& prog : comp.exit_pred_progs) {
    auto r = VmEvaluatePredicate(*prog, *run, &vm_);
    if (!r.ok() || !r.value()) return false;
  }
  return true;
}

void Matcher::BeginOptions(Run* run, const Event& event,
                           std::vector<int>* out) const {
  out->clear();
  const int n = static_cast<int>(plan_->pattern.components.size());
  int j = run->next_component();
  if (j >= n) return;
  // The open Kleene component must be allowed to close before anything
  // later begins.
  const int open = run->open_component();
  if (open >= 0 && !PassesExit(run, open)) return;
  while (j < n) {
    const CompiledComponent& comp =
        plan_->pattern.components[static_cast<size_t>(j)];
    if (TypeMatches(comp.type_tag, event) && PassesBegin(run, j, event)) {
      out->push_back(j);
    }
    if (!comp.skippable()) break;
    // Skipping a zero-minimum Kleene leaves it empty; its exit predicates
    // must hold on the empty binding (COUNT = 0, aggregates NULL).
    if (comp.is_kleene && !PassesExit(run, j)) break;
    ++j;
  }
}

bool Matcher::CanExtend(Run* run, const Event& event) const {
  const int open = run->open_component();
  if (open < 0) return false;
  const CompiledComponent& comp =
      plan_->pattern.components[static_cast<size_t>(open)];
  if (comp.max_iters >= 0 && run->KleeneCount(comp.var_index) >= comp.max_iters) {
    return false;  // iteration budget exhausted
  }
  if (!TypeMatches(comp.type_tag, event)) return false;
  return PassesIter(run, open, event);
}

bool Matcher::Expired(const Run& run, const Event& event) const {
  if (plan_->within_micros > 0 &&
      event.timestamp() - run.first_ts() > plan_->within_micros) {
    return true;
  }
  return plan_->within_events > 0 &&
         event.sequence() - run.first_sequence() >
             static_cast<uint64_t>(plan_->within_events);
}

bool Matcher::NegationKills(Run* run, const Event& event) const {
  const int next = run->next_component();
  if (next <= 0 || next >= static_cast<int>(plan_->pattern.components.size())) {
    return false;
  }
  const CompiledComponent& comp =
      plan_->pattern.components[static_cast<size_t>(next)];
  if (!comp.negation_before.has_value()) return false;
  const CompiledNegation& neg = *comp.negation_before;
  if (!TypeMatches(neg.type_tag, event)) return false;
  run->SetCandidate(neg.var_index, &event);
  bool kills = true;
  for (size_t i = 0; i < neg.preds.size(); ++i) {
    if (!EvalPred(*run, *neg.pred_progs[i], neg.pred_cache_ids[i],
                  neg.var_index, event)) {
      kills = false;
      break;
    }
  }
  run->ClearCandidate();
  return kills;
}

bool Matcher::MaybeEmit(Run* run, std::vector<Match>* out) {
  const int open = run->open_component();
  if (open >= 0 && !PassesExit(run, open)) return false;

  Match m;
  m.id = (*next_match_id_)++;
  m.first_ts = run->first_ts();
  const Event* last = run->LastBoundEvent();
  m.last_ts = last != nullptr ? last->timestamp() : run->first_ts();
  m.last_sequence = last != nullptr ? last->sequence() : run->first_sequence();
  // Materialize to plain vectors: the match owns its bindings outright and
  // may cross threads / outlive the matcher's arena.
  m.bindings = run->MaterializeBindings();

  m.row.reserve(plan_->select_progs.size());
  for (const BytecodeProgramPtr& prog : plan_->select_progs) {
    auto v = VmEvaluate(*prog, *run, &vm_);
    m.row.push_back(v.ok() ? std::move(v).value() : Value::Null());
  }
  m.score = plan_->score_prog == nullptr
                ? 0.0
                : VmEvaluateScore(*plan_->score_prog, *run, &vm_);

  stats_->matches.Increment();
  out->push_back(std::move(m));
  return true;
}

bool Matcher::MaybePruneAndCount(const Run& run) {
  if (pruner_ != nullptr && pruner_->ShouldPrune(run)) {
    stats_->runs_pruned_score.Increment();
    return true;
  }
  return false;
}

RunHandle Matcher::CloneRun(const Run& src, uint64_t new_id) {
  RunHandle run = memory_->runs.Acquire(new_id);
  run->CopyStateFrom(src, new_id);
  stats_->runs_cloned.Increment();
  return run;
}

bool Matcher::GroupEventPasses(const Event& event) const {
  const CompiledComponent& comp = plan_->pattern.components.back();
  if (!TypeMatches(comp.type_tag, event)) return false;
  for (size_t i = 0; i < comp.iter_preds.size(); ++i) {
    // Every iteration conjunct is event-only under DAG eligibility, so the
    // cached EventOnlyContext verdict is provably what any run would get.
    if (!CachedVerdict(*comp.iter_pred_progs[i], comp.iter_pred_cache_ids[i],
                       comp.var_index, event)) {
      return false;
    }
  }
  return true;
}

void Matcher::StartGroup(uint64_t owner, const Run& run, const EventPtr& event,
                         std::vector<LazyMatchSet>* lazy_out) {
  MatchDagStore* dag = memory_->dag.get();
  auto ctx = std::make_shared<DagGroupContext>();
  ctx->plan = plan_.get();
  ctx->store = memory_->dag;
  ctx->closed_bindings = run.MaterializeBindings();
  // Refold the closed prefix in per-variable append order — the order the
  // run's own accumulators folded it (bit-identical float state; same
  // discipline as Run::LoadState).
  ctx->base_aggs = AggStates(&plan_->pattern.agg_specs);
  for (size_t v = 0; v < ctx->closed_bindings.size(); ++v) {
    for (const EventPtr& e : ctx->closed_bindings[v]) {
      ctx->base_aggs.Accept(static_cast<int>(v), *e);
    }
  }
  const bool anchored = owner == kNoOwner;
  ctx->first_ts = anchored ? event->timestamp() : run.first_ts();
  ctx->first_sequence = anchored ? event->sequence() : run.first_sequence();

  DagNode* bottom = dag->Bottom();
  DagNode* ext = dag->NewExtend(event, bottom);
  dag->Unref(bottom);
  DagNode* head;
  if (anchored) {
    // The anchor is pinned: every path of this group starts with it, so
    // first_ts is uniform (correct per-path expiry) and groups of later
    // anchors cover the remaining suffix subsets without overlap.
    dag->Ref(ext);  // the head keeps its own reference
    head = ext;
  } else {
    // Owned groups keep the bottom branch open: later events may start the
    // trailing binding fresh over the same prefix (the legacy begin-fork).
    DagNode* b = dag->Bottom();
    head = dag->NewUnion(b, ext);
    dag->Unref(b);
  }
  // The set takes over ext's creation reference: all paths through ext —
  // here just {event} — are exactly what the per-run engine emits now.
  lazy_out->emplace_back(ctx, ext, (*next_match_id_)++, event->sequence(),
                         event->timestamp());
  stats_->matches.Increment();
  groups_.push_back(DagGroup{owner, std::move(ctx), head});
  if (owner != kNoOwner) dag_group_owners_.insert(owner);
}

void Matcher::ProcessGroups(const EventPtr& event,
                            std::vector<LazyMatchSet>* lazy_out) {
  if (groups_.empty()) return;
  MatchDagStore* dag = memory_->dag.get();
  // Expiry prepass: the same WITHIN-span condition the run loop applies,
  // against the group's uniform first event.
  size_t write = 0;
  for (size_t read = 0; read < groups_.size(); ++read) {
    DagGroup& g = groups_[read];
    const bool expired =
        (plan_->within_micros > 0 &&
         event->timestamp() - g.ctx->first_ts > plan_->within_micros) ||
        (plan_->within_events > 0 &&
         event->sequence() - g.ctx->first_sequence >
             static_cast<uint64_t>(plan_->within_events));
    if (expired) {
      stats_->runs_expired.Increment();
      if (g.owner != kNoOwner) dag_group_owners_.erase(g.owner);
      dag->Unref(g.head);
      continue;
    }
    if (write != read) groups_[write] = std::move(groups_[read]);
    ++write;
  }
  groups_.resize(write);
  if (groups_.empty() || !GroupEventPasses(*event)) return;

  // One extend + one union per group — O(groups) per event, however many
  // suffix subsets the per-run engine would fork. The set at `ext` covers
  // every path of the old head extended by this event: exactly the matches
  // the forked runs would emit now.
  for (DagGroup& g : groups_) {
    DagNode* ext = dag->NewExtend(event, g.head);
    DagNode* head = dag->NewUnion(g.head, ext);
    lazy_out->emplace_back(g.ctx, ext, (*next_match_id_)++, event->sequence(),
                           event->timestamp());
    stats_->matches.Increment();
    dag->Unref(g.head);
    g.head = head;
  }
}

Matcher::RunFate Matcher::ProcessRun(Run* run, const EventPtr& event,
                                     std::vector<Match>* out,
                                     std::vector<RunHandle>* forks,
                                     std::vector<LazyMatchSet>* lazy_out) {
  // 1. WITHIN expiry: this and all later events are out of the run's span.
  if (Expired(*run, *event)) {
    stats_->runs_expired.Increment();
    return RunFate::kRemove;
  }

  std::vector<int>& begin_options = scratch_options_;
  BeginOptions(run, *event, &begin_options);

  if (plan_->strategy == SelectionStrategy::kSkipTillAny) {
    // Explore every enabled action on a fork; the original run represents
    // "ignore".
    for (const int comp : begin_options) {
      if (dag_active_ &&
          comp + 1 == static_cast<int>(plan_->pattern.components.size())) {
        // Trailing-Kleene begin under the shared DAG: instead of forking
        // one run now (and exponentially many on later events), split the
        // run's frozen closed prefix into a DAG group. If the group already
        // exists, ProcessGroups extended it with this event before the run
        // loop — the begin option is the same event-only verdict, so
        // nothing is missed.
        if (dag_group_owners_.count(run->id()) == 0) {
          StartGroup(run->id(), *run, event, lazy_out);
          stats_->runs_forked.Increment();
        }
        continue;
      }
      RunHandle fork = CloneRun(*run, next_run_id_++);
      stats_->runs_forked.Increment();
      fork->BeginComponent(comp, event);
      bool retire = false;
      if (fork->complete()) {
        // Pattern fully begun: single-ended patterns retire the run;
        // trailing-Kleene runs stay alive for further extensions.
        MaybeEmit(fork.get(), out);
        retire = !fork->kleene_open();
      }
      if (!retire && !MaybePruneAndCount(*fork)) {
        forks->push_back(std::move(fork));
      } else if (retire) {
        stats_->runs_completed.Increment();
      }
    }
    if (CanExtend(run, *event)) {
      RunHandle fork = CloneRun(*run, next_run_id_++);
      stats_->runs_forked.Increment();
      fork->ExtendKleene(event);
      if (fork->complete()) MaybeEmit(fork.get(), out);
      if (!MaybePruneAndCount(*fork)) forks->push_back(std::move(fork));
    }
    if (NegationKills(run, *event)) {
      stats_->runs_killed_negation.Increment();
      return RunFate::kRemove;
    }
    return RunFate::kKeep;
  }

  // Deterministic strategies: first enabled action wins; the earliest
  // beginnable component is preferred (greedy-optional).
  if (!begin_options.empty()) {
    run->BeginComponent(begin_options.front(), event);
    if (run->complete()) {
      MaybeEmit(run, out);
      if (!run->kleene_open()) {
        stats_->runs_completed.Increment();
        return RunFate::kRemove;
      }
    }
    if (MaybePruneAndCount(*run)) return RunFate::kRemove;
    return RunFate::kKeep;
  }
  if (NegationKills(run, *event)) {
    stats_->runs_killed_negation.Increment();
    return RunFate::kRemove;
  }
  if (CanExtend(run, *event)) {
    run->ExtendKleene(event);
    if (run->complete()) MaybeEmit(run, out);
    if (MaybePruneAndCount(*run)) return RunFate::kRemove;
    return RunFate::kKeep;
  }
  if (plan_->strategy == SelectionStrategy::kStrictContiguity) {
    stats_->runs_killed_strict.Increment();
    return RunFate::kRemove;
  }
  return RunFate::kKeep;
}

void Matcher::TryStartRun(const EventPtr& event, std::vector<Match>* out,
                          std::vector<LazyMatchSet>* lazy_out) {
  RunHandle probe = memory_->runs.Acquire(next_run_id_);
  std::vector<int>& begin_options = scratch_options_;
  BeginOptions(probe.get(), *event, &begin_options);
  if (dag_active_ && !begin_options.empty() &&
      begin_options.back() + 1 ==
          static_cast<int>(plan_->pattern.components.size())) {
    // A fresh start directly at the trailing Kleene (empty / fully
    // skippable prefix): anchor an ownerless group on this event. The
    // anchor stays the first iteration of every path, so groups of later
    // anchors never duplicate a binding — the per-anchor split the legacy
    // engine expresses as one fresh run per event.
    begin_options.pop_back();
    StartGroup(kNoOwner, *probe, event, lazy_out);
    stats_->runs_created.Increment();
  }
  if (begin_options.empty()) return;

  // Under the deterministic strategies one run starts (at the earliest
  // beginnable component); skip-till-any starts one run per option.
  const size_t start_count =
      plan_->strategy == SelectionStrategy::kSkipTillAny ? begin_options.size()
                                                         : 1;
  for (size_t i = 0; i < start_count; ++i) {
    RunHandle run = i + 1 == start_count ? std::move(probe)
                                         : CloneRun(*probe, next_run_id_);
    ++next_run_id_;
    run->BeginComponent(begin_options[i], event);
    stats_->runs_created.Increment();
    if (run->complete()) {
      // Pattern fully begun by its first event.
      MaybeEmit(run.get(), out);
      if (!run->kleene_open()) {
        stats_->runs_completed.Increment();
        continue;
      }
    }
    if (MaybePruneAndCount(*run)) continue;
    InsertRun(std::move(run));
  }
}

void Matcher::RemoveRunAt(size_t index) {
  runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(index));
  if (live_runs_ != nullptr) --*live_runs_;
}

double Matcher::BoundStrength(const Run& run) const {
  const Interval bound =
      DeriveBounds(*plan_->score, *plan_->score_prog, run, &vm_);
  return plan_->rank_desc ? bound.hi : -bound.lo;
}

bool Matcher::ShedOne(const Run& incoming) {
  stats_->runs_dropped_capacity.Increment();
  if (runs_.empty()) return false;  // nothing local to evict (shared budget)
  switch (options_.shed_policy) {
    case ShedPolicy::kRejectNew:
      return false;
    case ShedPolicy::kShedOldest:
      RemoveRunAt(0);
      return true;
    case ShedPolicy::kShedLowestScoreBound: {
      if (plan_->score == nullptr) {  // unranked: no bounds to compare
        RemoveRunAt(0);
        return true;
      }
      size_t weakest = 0;
      double weakest_strength = BoundStrength(*runs_[0]);
      for (size_t i = 1; i < runs_.size(); ++i) {
        const double strength = BoundStrength(*runs_[i]);
        if (strength < weakest_strength) {
          weakest = i;
          weakest_strength = strength;
        }
      }
      if (BoundStrength(incoming) < weakest_strength) return false;
      RemoveRunAt(weakest);
      return true;
    }
  }
  return false;
}

void Matcher::InsertRun(RunHandle run) {
  const bool partition_full = runs_.size() >= options_.max_active_runs;
  const bool total_full = options_.max_total_runs > 0 &&
                          live_runs_ != nullptr &&
                          *live_runs_ >= options_.max_total_runs;
  if ((partition_full || total_full) && !ShedOne(*run)) {
    return;  // the incoming run was the shed victim
  }
  runs_.push_back(std::move(run));
  if (live_runs_ != nullptr) ++*live_runs_;
}

bool Matcher::WouldEvaluate(Run* run, const Event& event) const {
  const auto& components = plan_->pattern.components;
  const int open = run->open_component();
  if (open >= 0 &&
      TypeMatches(components[static_cast<size_t>(open)].type_tag, event)) {
    return true;
  }
  // A beginnable component (reachable through skippable prefixes) or its
  // negation watcher would also evaluate predicates against the event.
  const int next = run->next_component();
  if (next < 0 || next >= static_cast<int>(components.size())) return false;
  const CompiledComponent& comp = components[static_cast<size_t>(next)];
  if (TypeMatches(comp.type_tag, event)) return true;
  return comp.negation_before.has_value() &&
         TypeMatches(comp.negation_before->type_tag, event);
}

void Matcher::QuarantineEvent(const Event& event) {
  stats_->events_quarantined.Increment();
  size_t write = 0;
  for (size_t read = 0; read < runs_.size(); ++read) {
    if (WouldEvaluate(runs_[read].get(), event)) {
      stats_->runs_poisoned.Increment();
      continue;  // the run's predicate evaluation faulted with the event
    }
    if (write != read) runs_[write] = std::move(runs_[read]);
    ++write;
  }
  if (live_runs_ != nullptr) *live_runs_ -= runs_.size() - write;
  runs_.resize(write);
  // Every DAG group has the trailing Kleene open, so a type-matching poison
  // event would have faulted its (shared) iteration predicates — the same
  // condition WouldEvaluate applies to the forked runs the groups replace.
  if (!groups_.empty() &&
      TypeMatches(plan_->pattern.components.back().type_tag, event)) {
    for (DagGroup& g : groups_) {
      stats_->runs_poisoned.Increment();
      if (g.owner != kNoOwner) dag_group_owners_.erase(g.owner);
      memory_->dag->Unref(g.head);
    }
    groups_.clear();
  }
}

Status Matcher::OnEvent(const EventPtr& event, std::vector<Match>* out) {
  return OnEvent(event, out, nullptr);
}

Status Matcher::OnEvent(const EventPtr& event, std::vector<Match>* out,
                        std::vector<LazyMatchSet>* lazy_out) {
  if (!dag_decided_) {
    // Latch the DAG mode on first contact: the scope must carry a store
    // (knob on + eligible shape) AND the caller must collect lazy sets
    // (the ranking layer buffers and enumerates them at window close).
    dag_decided_ = true;
    dag_active_ = memory_->dag != nullptr && lazy_out != nullptr;
  }
  stats_->events.Increment();

  // Deterministic injected eval fault: the same (seed, sequence) pair fires
  // identically under serial and sharded execution.
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFire(fault_points::kEvalPoison,
                                          event->sequence())) {
    if (options_.fault_policy == FaultPolicy::kFailFast) {
      return Status::Internal("predicate evaluation fault on poison event "
                              "(stream sequence " +
                              std::to_string(event->sequence()) + ")");
    }
    QuarantineEvent(*event);
    stats_->peak_active_runs.Observe(runs_.size());
    return Status::OK();
  }

  // Forget the previous event's cached event-only verdicts.
  std::fill(pred_cache_.begin(), pred_cache_.end(), int8_t{-1});

  // Step existing groups before the run loop: groups created during this
  // event (run intercepts / fresh anchors) incorporate it at creation and
  // must not be stepped again.
  if (dag_active_) ProcessGroups(event, lazy_out);

  std::vector<RunHandle> forks;

  size_t write = 0;
  for (size_t read = 0; read < runs_.size(); ++read) {
    const RunFate fate =
        ProcessRun(runs_[read].get(), event, out, &forks, lazy_out);
    if (fate == RunFate::kKeep) {
      if (write != read) runs_[write] = std::move(runs_[read]);
      ++write;
    }
  }
  if (live_runs_ != nullptr) *live_runs_ -= runs_.size() - write;
  runs_.resize(write);

  for (auto& fork : forks) InsertRun(std::move(fork));

  TryStartRun(event, out, lazy_out);
  stats_->peak_active_runs.Observe(runs_.size());
  // Attribute the binding cells this event made to the shared counter (the
  // arena is shared across the query's partition matchers; consuming the
  // delta per event keeps the single-writer discipline).
  stats_->binding_nodes_allocated.Add(memory_->arena.TakeConstructedDelta());
  if (memory_->dag != nullptr) {
    stats_->dag_nodes_allocated.Add(memory_->dag->TakeAllocatedDelta());
    stats_->dag_nodes_shared.Add(memory_->dag->TakeSharedDelta());
    stats_->peak_dag_nodes.Observe(memory_->dag->live_nodes());
  }
  return Status::OK();
}

void Matcher::SaveState(EventInterner* in, BinWriter* w) const {
  w->U64(next_run_id_);
  w->U32(static_cast<uint32_t>(runs_.size()));
  for (const RunHandle& run : runs_) {
    w->U64(run->id());
    run->SaveState(in, w);
  }
  w->Bool(dag_decided_);
  w->Bool(dag_active_);
  if (dag_active_) {
    w->U32(static_cast<uint32_t>(groups_.size()));
    DagWriter dag_writer(in, w);
    for (const DagGroup& g : groups_) {
      w->U64(g.owner);
      SaveDagGroupContext(in, w, *g.ctx);
      dag_writer.Save(g.head);
    }
  }
}

bool Matcher::LoadState(EventUninterner* in, BinReader* r) {
  uint32_t count = 0;
  if (!r->U64(&next_run_id_) || !r->U32(&count)) return false;
  runs_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!r->U64(&id)) return false;
    RunHandle run = memory_->runs.Acquire(id);
    if (!run->LoadState(in, r)) return false;
    runs_.push_back(std::move(run));
  }
  if (live_runs_ != nullptr) *live_runs_ += runs_.size();
  if (!r->Bool(&dag_decided_) || !r->Bool(&dag_active_)) return false;
  if (dag_active_) {
    // The restoring scope must run with the same shared_match_dag knob the
    // checkpoint was taken under (same discipline as other option knobs).
    if (memory_->dag == nullptr) return false;
    MatchDagStore* dag = memory_->dag.get();
    uint32_t group_count = 0;
    if (!r->U32(&group_count)) return false;
    DagReader dag_reader(in, r, dag);
    groups_.reserve(group_count);
    for (uint32_t i = 0; i < group_count; ++i) {
      uint64_t owner = 0;
      if (!r->U64(&owner)) return false;
      DagGroupContextPtr ctx =
          LoadDagGroupContext(plan_.get(), memory_->dag, in, r);
      if (ctx == nullptr) return false;
      DagNode* head = dag_reader.Load();
      if (head == nullptr) return false;
      dag->Ref(head);  // the reader's table reference is released on scope exit
      if (owner != kNoOwner) dag_group_owners_.insert(owner);
      groups_.push_back(DagGroup{owner, std::move(ctx), head});
    }
    // Restored constructions replay saved state, not new per-event work.
    dag->DiscardDeltas();
  }
  return true;
}

size_t Matcher::MemoryEstimate() const {
  size_t bytes = sizeof(Matcher) + runs_.capacity() * sizeof(void*);
  for (const auto& run : runs_) bytes += run->MemoryEstimate();
  return bytes;
}

}  // namespace cepr
