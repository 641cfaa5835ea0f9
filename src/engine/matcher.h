#ifndef CEPR_ENGINE_MATCHER_H_
#define CEPR_ENGINE_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/counters.h"
#include "common/fault.h"
#include "common/status.h"
#include "engine/match_dag.h"
#include "engine/run.h"
#include "expr/vm.h"
#include "plan/compiler.h"

namespace cepr {

/// Hook the ranking layer installs to discard hopeless partial matches: a
/// run is pruned when its best achievable score (per DeriveBounds over the
/// run's BoundEnv) cannot enter the top-k of any report window the run
/// could still complete in.
class RunPruner {
 public:
  virtual ~RunPruner() = default;
  virtual bool ShouldPrune(const Run& run) const = 0;
};

/// Matcher counters of one query: X(name, kind, merge) entries (see
/// "Counter families" in common/counters.h). The memory/evaluation and DAG
/// counters are explained in docs/ARCHITECTURE.md ("Run-state memory
/// model") and engine/match_dag.h.
#define CEPR_MATCHER_COUNTERS(X)                                              \
  /* Events fed to the query's matchers. */                                   \
  X(events, kCount, kSum)                                                     \
  /* Runs started at component 0. */                                          \
  X(runs_created, kCount, kSum)                                               \
  /* Runs forked by SKIP_TILL_ANY_MATCH nondeterminism. */                    \
  X(runs_forked, kCount, kSum)                                                \
  /* Runs retired by a completing match. */                                   \
  X(runs_completed, kCount, kSum)                                             \
  /* Runs whose WITHIN span was exceeded. */                                  \
  X(runs_expired, kCount, kSum)                                               \
  /* Runs killed by a strict-contiguity violation. */                         \
  X(runs_killed_strict, kCount, kSum)                                         \
  /* Runs killed by a firing negation watcher. */                             \
  X(runs_killed_negation, kCount, kSum)                                       \
  /* Runs pruned by the ranking upper bound. */                               \
  X(runs_pruned_score, kCount, kSum)                                          \
  /* Runs shed by a run budget (any shed policy). */                          \
  X(runs_dropped_capacity, kCount, kSum)                                      \
  /* Poison events skipped under FaultPolicy::kSkipAndCount. */               \
  X(events_quarantined, kCount, kSum)                                         \
  /* Runs discarded by a poison event. */                                     \
  X(runs_poisoned, kCount, kSum)                                              \
  /* Matches detected. */                                                     \
  X(matches, kCount, kSum)                                                    \
  /* Run copies (forks + multi-starts). */                                    \
  X(runs_cloned, kCount, kSum)                                                \
  /* Binding-list cells constructed. */                                       \
  X(binding_nodes_allocated, kCount, kSum)                                    \
  /* Event-only predicate verdicts served from the per-event cache. */        \
  X(predcache_hits, kCount, kSum)                                             \
  /* Event-only predicate verdicts computed. */                               \
  X(predcache_misses, kCount, kSum)                                           \
  /* Shared-DAG node constructions. */                                        \
  X(dag_nodes_allocated, kCount, kSum)                                        \
  /* Shared-DAG node sharing events (extra references). */                    \
  X(dag_nodes_shared, kCount, kSum)                                           \
  /* Peak active runs. Per-shard peaks are disjoint run sets, so they sum */ \
  /* to an engine-wide upper bound. */                                        \
  X(peak_active_runs, kMax, kSum)                                             \
  /* Peak simultaneously live DAG nodes; sums like peak_active_runs. */       \
  X(peak_dag_nodes, kMax, kSum)

/// Plain-value snapshot of the matcher counters of one query (or one
/// (shard, query) cell on the shard backend). Copyable and summable; this
/// is what metrics readers receive. Accumulate sums every field, the two
/// peaks included.
struct MatcherStats : CounterValues<MatcherStats> {
  CEPR_COUNTER_VALUES(MatcherStats, CEPR_MATCHER_COUNTERS)
};

/// Live counters shared by all partition matchers of one query, written by
/// the single thread driving those matchers and snapshottable from any
/// thread (single-writer relaxed atomics; see common/counters.h).
struct AtomicMatcherStats {
  CEPR_LIVE_COUNTERS(MatcherStats, CEPR_MATCHER_COUNTERS)
};

/// What to shed when a run budget (per-partition `max_active_runs` or
/// shared `max_total_runs`) is full and a new run wants in. Every shed —
/// whichever policy — increments `runs_dropped_capacity`.
enum class ShedPolicy {
  /// Reject the incoming run; established runs keep their slots.
  kRejectNew,
  /// Drop the oldest run of the overflowing partition (FIFO; the legacy
  /// `max_active_runs` behavior and the default).
  kShedOldest,
  /// Drop whichever run — the incoming one included — has the weakest
  /// attainable score bound (DeriveBounds over the run's BoundEnv, the same
  /// machinery the ranking pruner uses), so under overload the emitted
  /// top-k degrades gracefully: the runs that could still place high
  /// survive. O(active runs) per shed; falls back to kShedOldest for
  /// unranked queries.
  kShedLowestScoreBound,
};

/// Stable name ("RejectNew" / "ShedOldest" / "ShedLowestScoreBound").
const char* ShedPolicyToString(ShedPolicy policy);

struct MatcherOptions {
  /// Hard cap on simultaneously active runs per partition; beyond it one
  /// run is shed per `shed_policy` (and counted). Bounds
  /// SKIP_TILL_ANY_MATCH blowup on hostile data.
  size_t max_active_runs = 100000;
  /// Cap on live runs across every partition sharing one budget counter
  /// (all matchers of a serial Engine; all cells of one shard in the
  /// sharded engine). 0 = unlimited.
  size_t max_total_runs = 0;
  /// Which run to shed when either budget is full.
  ShedPolicy shed_policy = ShedPolicy::kShedOldest;
  /// What to do when runtime evaluation faults on an event (see
  /// common/fault.h).
  FaultPolicy fault_policy = FaultPolicy::kFailFast;
  /// Optional fault-injection harness (tests/bench); not owned, may be
  /// null, must outlive the matcher.
  const FaultInjector* fault_injector = nullptr;

  /// Represent the trailing-Kleene fan-out of eligible SKIP_TILL_ANY_MATCH
  /// patterns (see MatchDagEligible) as a shared partial-match DAG with
  /// lazy rank-ordered enumeration at window close, instead of one forked
  /// run per suffix subset: per-event work drops from O(live runs) to
  /// O(groups) and state stays linear in window size. false = the per-run
  /// path that ineligible shapes always take. Ranked output is identical
  /// either way (enforced by CowEquivalence dag rows).
  bool shared_match_dag = true;
};

/// Overlays engine-wide overload/fault options onto a query's own
/// MatcherOptions at registration time: caps combine to the smaller
/// non-zero value; the policies and the injector are taken from the engine
/// when it sets a non-default / non-null value.
MatcherOptions MergeEngineCaps(MatcherOptions base, size_t max_runs_per_partition,
                               size_t max_total_runs, ShedPolicy shed_policy,
                               FaultPolicy fault_policy,
                               const FaultInjector* fault_injector);

/// Executes one compiled pattern over one partition's event sequence,
/// maintaining the active-run set and emitting Match objects.
///
/// Per-event semantics (documented order of attempted actions per run):
///  1. expire the run if the event pushes past the WITHIN span;
///  2. BEGIN the next component (requires the open Kleene component's exit
///     predicates, the type tag, and the begin predicates to pass);
///  3. otherwise the negation watcher may KILL the run;
///  4. otherwise TAKE the event as a Kleene extension;
///  5. otherwise IGNORE it (skip-till strategies) or die (strict).
/// SKIP_TILL_ANY_MATCH explores every enabled action by forking;
/// SKIP_TILL_NEXT_MATCH and STRICT take the first enabled action.
/// Every event additionally tries to start a fresh run at component 0.
class Matcher {
 public:
  /// `pruner` may be null (no score pruning). `stats` and `next_match_id`
  /// are owned by the caller and shared across partition matchers.
  /// `live_runs` (nullable) is the shared budget counter `max_total_runs`
  /// is enforced against; the matcher keeps it in sync with its run set.
  /// `memory` (nullable) is the shared run arena/pool of the query scope
  /// (PartitionedMatcher owns one for all its partitions); when null the
  /// matcher owns a private one.
  Matcher(CompiledQueryPtr plan, const MatcherOptions& options,
          const RunPruner* pruner, AtomicMatcherStats* stats,
          uint64_t* next_match_id, size_t* live_runs = nullptr,
          RunMemory* memory = nullptr);

  /// Releases this matcher's runs from the shared budget counter (a query
  /// may be removed while the engine keeps running).
  ~Matcher();

  Matcher(Matcher&&) = default;
  Matcher& operator=(Matcher&&) = default;

  /// Feeds one event; completed matches are appended to `out`. Fails only
  /// on a runtime fault under FaultPolicy::kFailFast (the run set is left
  /// coherent either way; under kSkipAndCount faults are quarantined and
  /// counted instead).
  Status OnEvent(const EventPtr& event, std::vector<Match>* out);

  /// DAG-aware variant: when the query scope carries a DAG store (see
  /// RunMemory::dag) and `lazy_out` is non-null, the trailing-Kleene
  /// fan-out is maintained as shared DAG groups and detections are appended
  /// to `lazy_out` as deferred LazyMatchSets instead of materialized
  /// matches (prefix-building matches still arrive via `out`). The mode is
  /// latched on the first event — callers must pass `lazy_out`
  /// consistently for the matcher's lifetime.
  Status OnEvent(const EventPtr& event, std::vector<Match>* out,
                 std::vector<LazyMatchSet>* lazy_out);

  size_t active_runs() const { return runs_.size(); }
  /// Live DAG groups (0 outside dag mode). Group state is live state: an
  /// event can extend or expire groups even with zero runs.
  size_t active_groups() const { return groups_.size(); }
  /// Rough bytes held by active runs.
  size_t MemoryEstimate() const;

  /// Checkpoint serialization of the live-run set. Save writes the run-id
  /// counter plus every active run in insertion order (the order ProcessRun
  /// visits them — load-order fidelity keeps recovery bit-identical). Load
  /// expects a freshly constructed matcher and acquires runs from the shared
  /// pool, keeping the shared live-run budget counter in sync.
  void SaveState(EventInterner* in, BinWriter* w) const;
  bool LoadState(EventUninterner* in, BinReader* r);

 private:
  enum class RunFate { kKeep, kRemove };

  /// One shared-DAG group: the state that replaces the exponential set of
  /// forked runs sharing one closed prefix. `owner` is the id of the
  /// prefix run the group was split from (it keeps running, frozen, as the
  /// group's "ignore" continuation), or kNoOwner for groups anchored by a
  /// fresh start (those pin their first event so concurrent anchors never
  /// duplicate a path). `head` carries one owned node reference.
  struct DagGroup {
    uint64_t owner = kNoOwner;
    DagGroupContextPtr ctx;
    DagNode* head = nullptr;
  };
  static constexpr uint64_t kNoOwner = static_cast<uint64_t>(-1);

  RunFate ProcessRun(Run* run, const EventPtr& event, std::vector<Match>* out,
                     std::vector<RunHandle>* forks,
                     std::vector<LazyMatchSet>* lazy_out);
  void TryStartRun(const EventPtr& event, std::vector<Match>* out,
                   std::vector<LazyMatchSet>* lazy_out);

  // -- shared partial-match DAG (engine/match_dag.h) -----------------------
  /// Verdict of the trailing component's (all event-only) iteration
  /// predicates for this event — the one evaluation every group shares.
  bool GroupEventPasses(const Event& event) const;
  /// Expires groups, then extends every surviving group with the event if
  /// it passes: one extend + one union node per group, and one LazyMatchSet
  /// per group covering exactly the matches the per-run engine would have
  /// emitted on this event.
  void ProcessGroups(const EventPtr& event, std::vector<LazyMatchSet>* lazy_out);
  /// Creates a group from `run`'s closed prefix, seeded with `event` as the
  /// trailing variable's first iteration (emitting that one-iteration set).
  void StartGroup(uint64_t owner, const Run& run, const EventPtr& event,
                  std::vector<LazyMatchSet>* lazy_out);
  void ReleaseGroups();

  /// Acquires a pooled run and copies `src`'s state into it (counted).
  RunHandle CloneRun(const Run& src, uint64_t new_id);

  bool TypeMatches(const std::string& tag, const Event& event) const;
  /// Evaluates one edge-predicate conjunct for `run` with `event` as the
  /// candidate for `var_index`. Event-only conjuncts (cache_id >= 0) are
  /// answered by CachedVerdict; correlated conjuncts evaluate against the
  /// run. `prog` is the conjunct's compiled bytecode.
  bool EvalPred(const Run& run, const BytecodeProgram& prog, int cache_id,
                int var_index, const Event& event) const;
  /// Verdict of event-only conjunct `cache_id` for `event`: evaluated at
  /// most once per event under an EventOnlyContext and shared across every
  /// run, begin-probe and DAG group of the partition.
  bool CachedVerdict(const BytecodeProgram& prog, int cache_id, int var_index,
                     const Event& event) const;
  bool PassesBegin(Run* run, int comp_index, const Event& event) const;
  bool PassesIter(Run* run, int comp_index, const Event& event) const;
  /// Exit predicates + the minimum-iteration bound of component
  /// `comp_index`, evaluated on the run's current binding (possibly empty).
  bool PassesExit(Run* run, int comp_index) const;
  /// Components the event could begin for this run: the next component,
  /// and — by skipping optional / zero-minimum-Kleene components — any
  /// later ones reachable through skippable prefixes. Empty if the open
  /// Kleene component cannot close yet.
  void BeginOptions(Run* run, const Event& event, std::vector<int>* out) const;
  bool CanExtend(Run* run, const Event& event) const;
  bool NegationKills(Run* run, const Event& event) const;
  /// WITHIN expiry (time- or count-based span exceeded by this event).
  bool Expired(const Run& run, const Event& event) const;

  /// Emits a match from a run whose pattern is complete; returns true if
  /// emitted (trailing-Kleene exit predicates may block it).
  bool MaybeEmit(Run* run, std::vector<Match>* out);

  /// Score-prunes `run` if the pruner says so (counting it); true = pruned.
  bool MaybePruneAndCount(const Run& run);

  /// Admits `run` into the active set, shedding per `shed_policy` when a
  /// budget is full (the victim may be `run` itself). Takes ownership.
  void InsertRun(RunHandle run);
  /// Frees one slot for `incoming` and counts the shed; false = the
  /// incoming run is the victim.
  bool ShedOne(const Run& incoming);
  /// Larger = more worth keeping: the score bound's best attainable end
  /// (hi for RANK BY ... DESC, -lo for ASC).
  double BoundStrength(const Run& run) const;
  /// Erases runs_[index], keeping the shared live-run counter in sync.
  void RemoveRunAt(size_t index);
  /// Whether `event` would reach predicate evaluation for this run (it
  /// type-matches the open Kleene component, a beginnable next component,
  /// or that component's negation watcher) — i.e. a poison event faults it.
  bool WouldEvaluate(Run* run, const Event& event) const;
  /// kSkipAndCount handling of an injected eval fault: quarantines the
  /// event and every run it would have faulted.
  void QuarantineEvent(const Event& event);

  CompiledQueryPtr plan_;
  MatcherOptions options_;
  const RunPruner* pruner_;     // not owned; may be null
  AtomicMatcherStats* stats_;   // not owned
  uint64_t* next_match_id_;  // not owned
  size_t* live_runs_;        // not owned; may be null (no shared budget)
  /// Owned fallback when no shared RunMemory is passed in; held by pointer
  /// so run-held arena addresses survive a Matcher move. Declared before
  /// runs_ so destruction recycles runs into a still-live pool.
  std::unique_ptr<RunMemory> owned_memory_;
  RunMemory* memory_;  // never null after ctor
  uint64_t next_run_id_ = 0;
  std::vector<RunHandle> runs_;
  /// Latched on the first event: groups are maintained iff the scope has a
  /// DAG store AND the caller collects lazy sets.
  bool dag_decided_ = false;
  bool dag_active_ = false;
  std::vector<DagGroup> groups_;
  /// Ids of prefix runs that already split off a group (their closed prefix
  /// is frozen, so one group covers all their trailing fan-out forever).
  std::unordered_set<uint64_t> dag_group_owners_;
  /// Scratch buffer reused across BeginOptions calls (single-threaded).
  std::vector<int> scratch_options_;
  /// Per-event verdict cache for event-only predicates, indexed by
  /// compiler-assigned cache id: -1 unknown, 0 false, 1 true. Reset at the
  /// top of OnEvent; filled lazily during predicate evaluation (const
  /// methods), hence mutable.
  mutable std::vector<int8_t> pred_cache_;
  /// Reusable register file for the bytecode VM (single-threaded; mutable
  /// because predicate evaluation happens in const methods).
  mutable VmState vm_;
};

}  // namespace cepr

#endif  // CEPR_ENGINE_MATCHER_H_
