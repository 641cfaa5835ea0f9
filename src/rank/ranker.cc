#include "rank/ranker.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "rank/enumerator.h"
#include "runtime/serde.h"

namespace cepr {

const char* RankerPolicyToString(RankerPolicy policy) {
  switch (policy) {
    case RankerPolicy::kPassthrough:
      return "passthrough";
    case RankerPolicy::kNaiveSort:
      return "naive-sort";
    case RankerPolicy::kHeap:
      return "heap";
    case RankerPolicy::kPruned:
      return "pruned";
  }
  return "?";
}

Ranker::Ranker(CompiledQueryPtr plan, RankerPolicy policy)
    : plan_(std::move(plan)),
      policy_(policy),
      eager_(plan_->emit == EmitPolicy::kOnComplete) {
  if (plan_->score == nullptr &&
      (policy_ == RankerPolicy::kNaiveSort || policy_ == RankerPolicy::kHeap ||
       policy_ == RankerPolicy::kPruned)) {
    // Without RANK BY every policy degenerates to detection order.
    policy_ = RankerPolicy::kPassthrough;
  }
  if (policy_ == RankerPolicy::kPruned && plan_->score != nullptr &&
      plan_->score_prunable && plan_->limit >= 0 &&
      plan_->emit != EmitPolicy::kEveryNEvents) {
    // Count-based windows give runs no event-time deadline, so no run can
    // ever be proven unable to reach the next (fresh) window: no pruner.
    const PruneScope scope = plan_->emit == EmitPolicy::kOnComplete
                                 ? PruneScope::kGlobal
                                 : PruneScope::kTimeWindow;
    pruner_ = std::make_unique<ScorePruner>(plan_->score, plan_->score_prog.get(),
                                            plan_->rank_desc, scope,
                                            plan_->within_micros);
  }
  if (policy_ == RankerPolicy::kHeap || policy_ == RankerPolicy::kPruned) {
    topk_ = std::make_unique<TopK>(EffectiveK(), plan_->rank_desc);
  }
}

size_t Ranker::EffectiveK() const {
  return plan_->limit < 0 ? TopK::kUnlimited : static_cast<size_t>(plan_->limit);
}

void Ranker::OnMatch(Match match, int64_t window_id,
                     std::vector<RankedResult>* out) {
  AdvanceTo(window_id, out);
  window_open_ = true;
  ++matches_seen_;

  switch (policy_) {
    case RankerPolicy::kPassthrough: {
      const size_t k = EffectiveK();
      if (k != TopK::kUnlimited && passthrough_emitted_ >= k) return;
      RankedResult r;
      r.window_id = window_id;
      r.rank = passthrough_emitted_++;
      r.provisional = false;
      r.match = std::move(match);
      out->push_back(std::move(r));
      return;
    }

    case RankerPolicy::kNaiveSort:
      buffer_.push_back(std::move(match));
      return;

    case RankerPolicy::kHeap:
    case RankerPolicy::kPruned: {
      Match copy_for_eager;
      if (eager_) copy_for_eager = match;  // shallow-ish: shared EventPtrs
      const bool accepted = topk_->Offer(std::move(match));
      if (accepted && eager_) {
        RankedResult r;
        r.window_id = window_id;
        // Rank under the full tie-break order, so equal-score matches get
        // the same provisional ranks Drain() would assign.
        r.rank = topk_->RankOf(copy_for_eager);
        r.provisional = true;
        r.match = std::move(copy_for_eager);
        out->push_back(std::move(r));
      }
      if (pruner_ != nullptr) {
        // A full heap with a real worst score is the only state that sets
        // a bar (k = 0 keeps full() true on an empty heap — no bar).
        const std::optional<double> bar =
            topk_->full() ? topk_->threshold() : std::nullopt;
        if (bar.has_value()) {
          // For time windows the pruner also needs the current window's
          // event-time end; window ids are ts / span.
          const Timestamp window_end =
              pruner_->scope() == PruneScope::kTimeWindow
                  ? (current_window_ + 1) * plan_->within_micros
                  : std::numeric_limits<Timestamp>::max();
          pruner_->SetThreshold(*bar, window_end);
        } else {
          pruner_->ClearThreshold();
        }
      }
      return;
    }
  }
}

void Ranker::OnLazySets(std::vector<LazyMatchSet> sets, int64_t window_id,
                        std::vector<RankedResult>* out) {
  if (sets.empty()) return;
  AdvanceTo(window_id, out);
  window_open_ = true;
  matches_seen_ += sets.size();
  // Buffer only: enumeration waits for the window close, when the k-th
  // threshold is as tight as it will get. The pruner (kPruned) stays idle
  // mid-window in dag mode — matches exist only as deferred sets, so no
  // bar can be derived from them yet.
  for (LazyMatchSet& s : sets) pending_.push_back(std::move(s));
}

void Ranker::AdvanceTo(int64_t window_id, std::vector<RankedResult>* out) {
  if (window_id <= current_window_) return;
  if (window_open_) CloseWindow(out);
  current_window_ = window_id;
}

void Ranker::Finish(std::vector<RankedResult>* out) {
  if (window_open_) CloseWindow(out);
}

void Ranker::CloseWindow(std::vector<RankedResult>* out) {
  switch (policy_) {
    case RankerPolicy::kPassthrough:
      break;  // already emitted eagerly
    case RankerPolicy::kNaiveSort: {
      std::sort(buffer_.begin(), buffer_.end(),
                [this](const Match& a, const Match& b) {
                  return OutranksMatch(a, b, plan_->rank_desc);
                });
      const size_t k = EffectiveK();
      if (k != TopK::kUnlimited && buffer_.size() > k) buffer_.resize(k);
      EmitOrdered(std::move(buffer_), out);
      buffer_.clear();
      break;
    }
    case RankerPolicy::kHeap:
    case RankerPolicy::kPruned: {
      if (!eager_) {
        if (!pending_.empty()) {
          // Best-first lazy enumeration: materialize deferred DAG matches
          // in score-bound order, stopping once every remaining bound is
          // strictly worse than the k-th retained score.
          uint64_t enumerated = 0;
          uint64_t cutoffs = 0;
          EnumerateLazyMatches(pending_, topk_.get(), &vm_, &enumerated,
                               &cutoffs);
          matches_enumerated_.Add(enumerated);
          enumeration_cutoffs_.Add(cutoffs);
          pending_.clear();
        }
        EmitOrdered(topk_->Drain(), out);
      } else {
        // Eager mode already streamed results; just reset the heap.
        topk_ = std::make_unique<TopK>(EffectiveK(), plan_->rank_desc);
      }
      if (pruner_ != nullptr) pruner_->ClearThreshold();
      break;
    }
  }
  passthrough_emitted_ = 0;
  window_open_ = false;
}

void Ranker::SaveState(EventInterner* in, BinWriter* w) const {
  w->I64(current_window_);
  w->Bool(window_open_);
  w->U64(matches_seen_);
  w->U64(passthrough_emitted_);
  w->Bool(topk_ != nullptr);
  if (topk_ != nullptr) topk_->SaveState(in, w);
  w->U32(static_cast<uint32_t>(buffer_.size()));
  for (const Match& m : buffer_) SaveMatch(in, w, m);
  w->Bool(pruner_ != nullptr);
  if (pruner_ != nullptr) {
    w->U64(pruner_->checks());
    w->U64(pruner_->prunes());
  }
  w->U64(matches_enumerated_.Load());
  w->U64(enumeration_cutoffs_.Load());
  w->U32(static_cast<uint32_t>(pending_.size()));
  if (!pending_.empty()) {
    DagWriter dag_writer(in, w);
    for (const LazyMatchSet& s : pending_) {
      w->U64(s.base_id());
      w->U64(s.last_sequence());
      w->I64(s.last_ts());
      SaveDagGroupContext(in, w, *s.group());
      dag_writer.Save(s.node());
    }
  }
}

bool Ranker::LoadState(EventUninterner* in, BinReader* r) {
  bool has_topk = false;
  if (!r->I64(&current_window_) || !r->Bool(&window_open_) ||
      !r->U64(&matches_seen_) || !r->U64(&passthrough_emitted_) ||
      !r->Bool(&has_topk)) {
    return false;
  }
  // Structural shape is derived from the plan; a mismatch means the
  // snapshot was written by a different query.
  if (has_topk != (topk_ != nullptr)) {
    r->Fail();
    return false;
  }
  if (topk_ != nullptr && !topk_->LoadState(in, r)) return false;
  uint32_t buffered = 0;
  if (!r->U32(&buffered)) return false;
  buffer_.clear();
  buffer_.reserve(buffered);
  for (uint32_t i = 0; i < buffered; ++i) {
    Match m;
    if (!LoadMatch(in, r, &m)) return false;
    buffer_.push_back(std::move(m));
  }
  bool has_pruner = false;
  if (!r->Bool(&has_pruner)) return false;
  if (has_pruner != (pruner_ != nullptr)) {
    r->Fail();
    return false;
  }
  if (pruner_ != nullptr) {
    uint64_t checks = 0, prunes = 0;
    if (!r->U64(&checks) || !r->U64(&prunes)) return false;
    pruner_->RestoreCounters(checks, prunes);
    // Reinstate the threshold exactly as the ranker's last action left it:
    // OnMatch sets a bar iff the heap is full with a real worst score (and
    // the window is still open — CloseWindow always clears).
    const std::optional<double> bar =
        window_open_ && topk_ != nullptr && topk_->full() ? topk_->threshold()
                                                          : std::nullopt;
    if (bar.has_value()) {
      const Timestamp window_end =
          pruner_->scope() == PruneScope::kTimeWindow
              ? (current_window_ + 1) * plan_->within_micros
              : std::numeric_limits<Timestamp>::max();
      pruner_->SetThreshold(*bar, window_end);
    } else {
      pruner_->ClearThreshold();
    }
  }
  uint64_t enumerated = 0;
  uint64_t cutoffs = 0;
  uint32_t pending_count = 0;
  if (!r->U64(&enumerated) || !r->U64(&cutoffs) || !r->U32(&pending_count)) {
    return false;
  }
  matches_enumerated_.Store(enumerated);
  enumeration_cutoffs_.Store(cutoffs);
  pending_.clear();
  if (pending_count > 0) {
    // Pending lazy sets need the matcher scope's DAG store: the restoring
    // engine must have bound it (same shared_match_dag knob as the save).
    if (dag_store_ == nullptr) {
      r->Fail();
      return false;
    }
    DagReader dag_reader(in, r, dag_store_.get());
    pending_.reserve(pending_count);
    for (uint32_t i = 0; i < pending_count; ++i) {
      uint64_t base_id = 0;
      uint64_t last_seq = 0;
      int64_t last_ts = 0;
      if (!r->U64(&base_id) || !r->U64(&last_seq) || !r->I64(&last_ts)) {
        return false;
      }
      DagGroupContextPtr ctx =
          LoadDagGroupContext(plan_.get(), dag_store_, in, r);
      if (ctx == nullptr) return false;
      DagNode* node = dag_reader.Load();
      if (node == nullptr) return false;
      dag_store_->Ref(node);  // the set owns its reference; the reader's
                              // table reference is released on scope exit
      pending_.emplace_back(std::move(ctx), node, base_id, last_seq, last_ts);
    }
    dag_store_->DiscardDeltas();
  }
  return true;
}

void Ranker::EmitOrdered(std::vector<Match> ordered,
                         std::vector<RankedResult>* out) {
  for (size_t i = 0; i < ordered.size(); ++i) {
    RankedResult r;
    r.window_id = current_window_;
    r.rank = i;
    r.provisional = false;
    r.match = std::move(ordered[i]);
    out->push_back(std::move(r));
  }
}

}  // namespace cepr
