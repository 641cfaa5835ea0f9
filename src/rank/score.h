#ifndef CEPR_RANK_SCORE_H_
#define CEPR_RANK_SCORE_H_

#include <cstdint>
#include <limits>

#include "common/counters.h"
#include "engine/matcher.h"
#include "expr/interval.h"

namespace cepr {

/// Which report windows a pruned run could still have fed.
enum class PruneScope {
  /// One unbounded window (EMIT ON COMPLETE): the top-k bar only rises, so
  /// any run whose bound fails it is safe to discard.
  kGlobal,
  /// Tumbling event-time windows (EMIT ON WINDOW CLOSE): the bar resets at
  /// each boundary, so a run may only be pruned if it cannot complete
  /// after the current window ends (first_ts + WITHIN < window end).
  kTimeWindow,
};

/// The partial-match pruner (CEPR's key ranking optimization): a run whose
/// best achievable score — per interval-arithmetic bound derivation over
/// the run's binding state and the stream's attribute ranges — cannot beat
/// the current k-th best score is discarded before it wastes further work.
///
/// The ranker owns the threshold (and, for kTimeWindow, the current window
/// end) and updates them as the top-k evolves; the matcher consults
/// ShouldPrune on every run state change. Pruning is inactive until the
/// top-k is full (there is no bar to clear yet). Count-based report windows
/// get no pruner at all: any run may outlive the current window there.
class ScorePruner : public RunPruner {
 public:
  /// `score` and its bytecode `score_prog` must outlive the pruner (owned
  /// by the compiled query). `within_micros` is the query's WITHIN span
  /// (bounds a run's lifetime); only used for kTimeWindow scope.
  ScorePruner(const Expr* score, const BytecodeProgram* score_prog, bool desc,
              PruneScope scope, Timestamp within_micros)
      : score_(score),
        score_prog_(score_prog),
        desc_(desc),
        scope_(scope),
        within_(within_micros) {}

  /// Installs the current entry bar: with DESC ranking a run is pruned when
  /// its score upper bound is <= threshold (ties lose to earlier matches);
  /// with ASC when its lower bound is >= threshold. `window_end` is the
  /// exclusive event-time end of the currently open report window
  /// (ignored for kGlobal scope).
  void SetThreshold(double threshold,
                    Timestamp window_end = std::numeric_limits<Timestamp>::max()) {
    active_ = true;
    threshold_ = threshold;
    window_end_ = window_end;
  }
  /// Deactivates pruning (e.g. after a report window closed).
  void ClearThreshold() { active_ = false; }

  bool active() const { return active_; }
  PruneScope scope() const { return scope_; }

  /// Instrumentation for the pruning experiment (E3) and the metrics
  /// snapshots; readable from any thread (single-writer relaxed atomics —
  /// only the thread driving the matcher increments them).
  uint64_t checks() const { return checks_.Load(); }
  uint64_t prunes() const { return prunes_.Load(); }

  /// Checkpoint restore: reinstates the instrumentation counters (the
  /// threshold itself is recomputed from the restored top-k heap).
  void RestoreCounters(uint64_t checks, uint64_t prunes) {
    checks_.Store(checks);
    prunes_.Store(prunes);
  }

  bool ShouldPrune(const Run& run) const override;

 private:
  const Expr* score_;
  const BytecodeProgram* score_prog_;
  bool desc_;
  PruneScope scope_;
  Timestamp within_;
  bool active_ = false;
  double threshold_ = 0.0;
  Timestamp window_end_ = 0;
  mutable RelaxedCounter checks_;
  mutable RelaxedCounter prunes_;
  /// Registers for DeriveBounds (only the matcher's thread calls
  /// ShouldPrune).
  mutable VmState vm_;
};

}  // namespace cepr

#endif  // CEPR_RANK_SCORE_H_
