#ifndef CEPR_ENGINE_RUN_H_
#define CEPR_ENGINE_RUN_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/binding.h"
#include "engine/match_dag.h"
#include "expr/eval.h"
#include "expr/interval.h"
#include "plan/compiler.h"

namespace cepr {

class BinWriter;
class BinReader;
class EventInterner;
class EventUninterner;

/// A completed pattern instance, ready for ranking and emission.
struct Match {
  /// Detection sequence number (monotonically increasing within one
  /// matcher scope — per query single-threaded, per shard under sharded
  /// execution). Secondary tie-break for equal scores.
  uint64_t id = 0;
  /// Stream sequence number of the detecting (last bound) event. Primary
  /// tie-break for equal scores: it is a global stream property, so the
  /// ranked order is identical whether partitions run on one thread or
  /// are sharded across workers. Matches detected by the same event live
  /// in one matcher, where `id` finishes the job.
  uint64_t last_sequence = 0;
  /// Timestamps of the first and last bound event.
  Timestamp first_ts = 0;
  Timestamp last_ts = 0;
  /// Bound events per layout variable (empty for negated variables; one
  /// entry for single variables; one per iteration for Kleene variables).
  /// Materialized from the run's persistent binding lists at emission time,
  /// so matches own plain vectors and may safely cross threads (sharded
  /// merge) and outlive the matcher's arena.
  std::vector<std::vector<EventPtr>> bindings;
  /// SELECT outputs, evaluated at detection time.
  std::vector<Value> row;
  /// RANK BY value; -infinity for unranked queries.
  double score = 0.0;

  std::string ToString() const;
};

/// One active partial match: the engine's unit of state. A Run tracks which
/// component is being filled, the events bound so far, and the incremental
/// aggregate accumulators — and exposes itself as the EvalContext for edge
/// predicates and as the BoundEnv for the ranking pruner.
///
/// Bindings are persistent copy-on-write cons lists (engine/binding.h):
/// forking a run copies O(components) list heads and shares every already-
/// bound event with the parent, instead of deep-copying the whole binding
/// matrix.
class Run : public EvalContext, public BoundEnv {
 public:
  /// Engine path: nodes come from `arena` (owned by the enclosing
  /// PartitionedMatcher / Matcher and outliving every run).
  Run(const CompiledQuery* plan, uint64_t id, BindingArena* arena);

  /// Test convenience: the run owns a private arena (shared with any runs
  /// Clone() derives from it, so destruction order does not matter).
  Run(const CompiledQuery* plan, uint64_t id);

  /// Fork helper: copies `src`'s state into this (freshly acquired or
  /// Reset) run — O(components) pointer copies.
  void CopyStateFrom(const Run& src, uint64_t new_id);

  /// Returns this run to its initial state, keeping allocated capacity
  /// (vector storage, aggregate slots) — the RunPool recycling hook.
  void Reset(uint64_t new_id);

  /// Copy used for forking under SKIP_TILL_ANY_MATCH (events and list
  /// structure are shared with this run).
  std::unique_ptr<Run> Clone(uint64_t new_id) const;

  uint64_t id() const { return id_; }

  /// Index of the next component to begin (== component count when every
  /// component has begun).
  int next_component() const { return next_component_; }

  /// Whether the most recently begun component is Kleene (still open for
  /// extensions).
  bool kleene_open() const;

  /// Index of the open Kleene component, or -1.
  int open_component() const;

  /// Timestamp / stream sequence number of the first bound event.
  Timestamp first_ts() const { return first_ts_; }
  uint64_t first_sequence() const { return first_sequence_; }

  /// True iff every component has begun (for single-ended patterns this is
  /// the accepting condition; trailing-Kleene patterns accept on every
  /// extension).
  bool complete() const {
    return next_component_ >= static_cast<int>(plan_->pattern.components.size());
  }

  /// Binds `event` as the first/only event of component `comp` and
  /// advances the state past it. `comp` may be ahead of next_component()
  /// when intervening skippable components (optional / zero-minimum
  /// Kleene) are being skipped; their bindings stay empty.
  void BeginComponent(int comp, const EventPtr& event);

  /// Appends one more iteration to the open Kleene component.
  void ExtendKleene(const EventPtr& event);

  /// Installs / clears a candidate event for predicate evaluation: while
  /// set, SingleEvent(var) and KleeneCurrent(var) return it for `var`.
  void SetCandidate(int var_index, const Event* event) {
    candidate_var_ = var_index;
    candidate_ = event;
  }
  void ClearCandidate() {
    candidate_var_ = -1;
    candidate_ = nullptr;
  }

  const BindingList& binding(int var_index) const {
    return bindings_[static_cast<size_t>(var_index)];
  }

  /// Bound events per layout variable as plain vectors (Match::bindings).
  std::vector<std::vector<EventPtr>> MaterializeBindings() const;

  /// The bound event with the highest stream sequence (the detecting
  /// event), or nullptr for a fresh run.
  const Event* LastBoundEvent() const;

  /// Rough bytes held by this run (for the memory experiment). Shared
  /// binding cells are attributed to every run referencing them.
  size_t MemoryEstimate() const;

  /// Checkpoint serialization. Save materializes each variable's binding
  /// list in append order (events interned, so COW sharing costs one body);
  /// Load — on a freshly Reset run — replays Append+Accept per variable,
  /// refolding the aggregate accumulators in the exact order the original
  /// BeginComponent/ExtendKleene calls folded them (bit-identical float
  /// sums). Run id is owned by the enclosing matcher's serialization.
  void SaveState(EventInterner* in, BinWriter* w) const;
  bool LoadState(EventUninterner* in, BinReader* r);

  // -- EvalContext -----------------------------------------------------------
  const Event* SingleEvent(int var_index) const override;
  const Event* KleeneFirst(int var_index) const override;
  const Event* KleeneLast(int var_index) const override;
  const Event* KleeneCurrent(int var_index) const override;
  int64_t KleeneCount(int var_index) const override;
  double AggValue(int agg_slot) const override;

  // -- BoundEnv (for the ranking pruner) ------------------------------------
  Interval AttrRange(int attr_index) const override;
  bool IsClosed(int var_index) const override;
  const EvalContext& Context() const override { return *this; }

 private:
  const CompiledQuery* plan_;  // not owned; outlives all runs
  /// Set only by the test-convenience constructor; shared with clones so
  /// the arena survives as long as any run referencing its nodes.
  std::shared_ptr<BindingArena> own_arena_;
  BindingArena* arena_;  // not owned (or == own_arena_.get())
  uint64_t id_;
  int next_component_ = 0;
  std::vector<BindingList> bindings_;  // indexed by layout var
  AggStates aggs_;
  Timestamp first_ts_ = 0;
  uint64_t first_sequence_ = 0;

  int candidate_var_ = -1;
  const Event* candidate_ = nullptr;  // not owned; valid during one test
};

class RunPool;

/// unique_ptr deleter that recycles runs into their pool (or plain-deletes
/// when no pool is attached).
struct RunRecycler {
  RunPool* pool = nullptr;
  void operator()(Run* run) const;
};

/// Owning handle to an active run; destruction returns the run (and, right
/// away, its binding nodes) to the per-matcher pool.
using RunHandle = std::unique_ptr<Run, RunRecycler>;

/// Freelist of Run objects for one query's matchers: recycled runs keep
/// their vector capacities and aggregate slots, so the fork/kill cycle of
/// SKIP_TILL_ANY_MATCH stops allocating per run.
class RunPool {
 public:
  RunPool(const CompiledQuery* plan, BindingArena* arena)
      : plan_(plan), arena_(arena) {}
  ~RunPool();

  RunPool(const RunPool&) = delete;
  RunPool& operator=(const RunPool&) = delete;

  /// A reset run with the given id (recycled when available).
  RunHandle Acquire(uint64_t id);

  /// RunRecycler entry point: clears the run's bindings (nodes go back to
  /// the arena immediately) and shelves the object for reuse.
  void Recycle(Run* run);

 private:
  const CompiledQuery* plan_;  // not owned
  BindingArena* arena_;        // not owned; outlives the pool's runs
  std::vector<Run*> free_;  // owned
};

/// The run-state memory of one query scope (one per serial query; one per
/// (shard, query) cell under sharded execution): the binding-node arena and
/// the run freelist, shared by every partition matcher of that scope.
/// Declared before the matchers it serves so it outlives their run sets.
struct RunMemory {
  explicit RunMemory(const CompiledQuery* plan, bool shared_match_dag = false)
      : runs(plan, &arena) {
    if (shared_match_dag && MatchDagEligible(*plan)) {
      dag = std::make_shared<MatchDagStore>(plan);
    }
  }

  BindingArena arena;
  RunPool runs;
  /// Shared partial-match DAG store (engine/match_dag.h): non-null exactly
  /// when the shared_match_dag knob is on AND the plan's shape is DAG-
  /// eligible. shared_ptr because in-flight LazyMatchSets keep the store
  /// (and thereby their nodes) alive past this scope's matchers.
  std::shared_ptr<MatchDagStore> dag;
};

}  // namespace cepr

#endif  // CEPR_ENGINE_RUN_H_
