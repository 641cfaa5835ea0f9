#include "rank/score.h"

#include "engine/run.h"

namespace cepr {

bool ScorePruner::ShouldPrune(const Run& run) const {
  if (!active_ || score_ == nullptr) return false;
  if (scope_ == PruneScope::kTimeWindow) {
    // The run can still complete inside the *next* window, whose top-k bar
    // is unknown (it starts empty); pruning it against the current bar
    // would be unsound. Only runs trapped in the current window qualify.
    if (within_ <= 0 || run.first_ts() + within_ >= window_end_) return false;
  }
  checks_.Increment();
  const Interval bound = DeriveBounds(*score_, *score_prog_, run, &vm_);
  const bool prune = desc_ ? bound.hi <= threshold_ : bound.lo >= threshold_;
  if (prune) prunes_.Increment();
  return prune;
}

}  // namespace cepr
