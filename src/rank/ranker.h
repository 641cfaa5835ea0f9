#ifndef CEPR_RANK_RANKER_H_
#define CEPR_RANK_RANKER_H_

#include <memory>
#include <vector>

#include "common/counters.h"
#include "engine/match_dag.h"
#include "rank/score.h"
#include "rank/topk.h"

namespace cepr {

class BinWriter;
class BinReader;
class EventInterner;
class EventUninterner;

/// How a query's matches are ranked and retained. kHeap is CEPR's default;
/// kNaiveSort and kPassthrough are the evaluation baselines; kPruned adds
/// the partial-match upper-bound pruner on top of kHeap.
enum class RankerPolicy {
  /// No ranking: matches leave in detection order (LIMIT = first-k).
  kPassthrough,
  /// Baseline: buffer every match of the window, sort at close, cut to k.
  kNaiveSort,
  /// Incremental bounded top-k heap; O(log k) per match.
  kHeap,
  /// kHeap + ScorePruner feeding a threshold back into the matcher.
  kPruned,
};

const char* RankerPolicyToString(RankerPolicy policy);

/// One ranked output row.
struct RankedResult {
  Match match;
  int64_t window_id = 0;
  /// 0-based rank within the report window. Final for buffered emission;
  /// the rank at emission time for eager (provisional) emission.
  size_t rank = 0;
  /// True when emitted eagerly (EMIT ON COMPLETE) — a later match may
  /// retroactively outrank it.
  bool provisional = false;
};

/// Maintains the ranked state of one query's report window and decides
/// when results leave. Single-threaded, driven by the query runtime.
class Ranker {
 public:
  /// `plan` supplies direction, limit and emission policy. For kPruned the
  /// ranker creates a ScorePruner the matcher should be wired to.
  Ranker(CompiledQueryPtr plan, RankerPolicy policy);

  RankerPolicy policy() const { return policy_; }

  /// The pruner to install into the matcher; null unless policy == kPruned
  /// and the query has a statically boundable score.
  const RunPruner* pruner() const { return pruner_.get(); }
  const ScorePruner* score_pruner() const { return pruner_.get(); }

  /// Accepts one detected match assigned to `window_id`. Windows must be
  /// non-decreasing (in-order streams); moving to a newer window closes the
  /// previous one, appending its ordered results to `out`. Under eager
  /// emission (EMIT ON COMPLETE) accepted matches are also appended
  /// immediately, flagged provisional.
  void OnMatch(Match match, int64_t window_id, std::vector<RankedResult>* out);

  /// Accepts deferred lazy-DAG match sets assigned to `window_id`. The sets
  /// buffer until the window closes, when the best-first enumerator
  /// (rank/enumerator.h) materializes only the matches the top-k order
  /// needs. Valid only for buffered kHeap/kPruned windows — the engines
  /// gate dag mode to exactly those policies.
  void OnLazySets(std::vector<LazyMatchSet> sets, int64_t window_id,
                  std::vector<RankedResult>* out);

  /// Informs the ranker that the stream has progressed to `window_id`
  /// (independent of matches), closing any older window.
  void AdvanceTo(int64_t window_id, std::vector<RankedResult>* out);

  /// End of stream: closes the open window.
  void Finish(std::vector<RankedResult>* out);

  /// Matches accepted into ranked state so far (diagnostics). In dag mode
  /// each LazyMatchSet counts once (the matcher's detection unit).
  uint64_t matches_seen() const { return matches_seen_; }

  /// Lazy-enumeration counters (0 outside dag mode): matches the
  /// enumerator materialized, and frontier cutoffs (walks abandoned once
  /// every remaining bound fell strictly below the k-th threshold).
  /// Relaxed atomics — the sharded snapshot path reads them while the
  /// owning shard thread keeps ranking (same contract as the pruner's).
  uint64_t matches_enumerated() const { return matches_enumerated_.Load(); }
  uint64_t enumeration_cutoffs() const { return enumeration_cutoffs_.Load(); }

  /// Installs the matcher scope's DAG store so LoadState can rebuild
  /// pending lazy sets. Must be called before LoadState when the engine
  /// runs in dag mode; a null store is fine otherwise.
  void BindDagStore(std::shared_ptr<MatchDagStore> store) {
    dag_store_ = std::move(store);
  }

  /// True iff an open window holds buffered matches that only a future
  /// AdvanceTo / Finish will release — i.e. window progress must not be
  /// postponed past the next boundary. Eager and passthrough windows
  /// already emitted everything; closing them is a pure state reset that
  /// any later OnMatch/AdvanceTo performs equivalently.
  bool has_buffered_results() const {
    return window_open_ && !eager_ && policy_ != RankerPolicy::kPassthrough;
  }

  /// Checkpoint serialization of the mutable ranking state: window cursor,
  /// retained matches (heap or sort buffer) and pruner counters. Structural
  /// configuration (policy, k, direction, pruner existence) is rebuilt from
  /// the plan at construction; LoadState then reinstates the pruner
  /// threshold exactly as the last OnMatch/CloseWindow left it.
  void SaveState(EventInterner* in, BinWriter* w) const;
  bool LoadState(EventUninterner* in, BinReader* r);

 private:
  void CloseWindow(std::vector<RankedResult>* out);
  void EmitOrdered(std::vector<Match> ordered, std::vector<RankedResult>* out);
  size_t EffectiveK() const;

  CompiledQueryPtr plan_;
  RankerPolicy policy_;
  bool eager_;  // EMIT ON COMPLETE
  std::unique_ptr<ScorePruner> pruner_;

  int64_t current_window_ = 0;
  bool window_open_ = false;
  uint64_t matches_seen_ = 0;
  uint64_t passthrough_emitted_ = 0;  // per window, for kPassthrough LIMIT

  std::unique_ptr<TopK> topk_;       // kHeap / kPruned
  std::vector<Match> buffer_;        // kNaiveSort

  /// Deferred lazy-DAG match sets of the open window (dag mode only).
  std::vector<LazyMatchSet> pending_;
  /// Registers for the lazy enumerator's bytecode (single-threaded like
  /// the rest of the ranker).
  VmState vm_;
  std::shared_ptr<MatchDagStore> dag_store_;  // for LoadState of pending_
  RelaxedCounter matches_enumerated_;
  RelaxedCounter enumeration_cutoffs_;
};

}  // namespace cepr

#endif  // CEPR_RANK_RANKER_H_
