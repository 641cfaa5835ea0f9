#include "engine/partition.h"

#include <algorithm>

#include "common/binio.h"
#include "runtime/serde.h"

namespace cepr {

PartitionedMatcher::PartitionedMatcher(CompiledQueryPtr plan,
                                       const MatcherOptions& options,
                                       const RunPruner* pruner,
                                       size_t* live_runs)
    : plan_(std::move(plan)),
      options_(options),
      pruner_(pruner),
      live_runs_(live_runs != nullptr ? live_runs : &own_live_runs_),
      memory_(plan_.get(), options_.shared_match_dag) {
  if (plan_->partition_attr_index < 0) {
    single_ = std::make_unique<Matcher>(plan_, options_, pruner_, &stats_,
                                        &next_match_id_, live_runs_, &memory_);
  }
}

Matcher* PartitionedMatcher::MatcherFor(const Event& event) {
  if (single_ != nullptr) return single_.get();
  const Value& key =
      event.value(static_cast<size_t>(plan_->partition_attr_index));
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    it = by_key_
             .emplace(key, std::make_unique<Matcher>(plan_, options_, pruner_,
                                                     &stats_, &next_match_id_,
                                                     live_runs_, &memory_))
             .first;
  }
  return it->second.get();
}

Matcher* PartitionedMatcher::ExistingMatcherFor(const Event& event) const {
  if (single_ != nullptr) return single_.get();
  const Value& key =
      event.value(static_cast<size_t>(plan_->partition_attr_index));
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : it->second.get();
}

Status PartitionedMatcher::OnEvent(const EventPtr& event,
                                   std::vector<Match>* out) {
  bool evaluated = false;
  return OnEvent(event, out, /*candidate=*/true, &evaluated);
}

Status PartitionedMatcher::OnEvent(const EventPtr& event,
                                   std::vector<Match>* out,
                                   std::vector<LazyMatchSet>* lazy_out) {
  bool evaluated = false;
  return OnEvent(event, out, /*candidate=*/true, &evaluated, lazy_out);
}

Status PartitionedMatcher::OnEvent(const EventPtr& event,
                                   std::vector<Match>* out, bool candidate,
                                   bool* evaluated,
                                   std::vector<LazyMatchSet>* lazy_out) {
  Matcher* m;
  if (candidate) {
    m = MatcherFor(*event);
  } else {
    // The predicate index proved the event cannot begin a run. If its
    // partition has no matcher yet — or one with no live runs or DAG
    // groups — the visit would be a pure no-op (nothing to extend, kill,
    // or expire), so skip it without materializing the partition.
    m = ExistingMatcherFor(*event);
    if (m == nullptr || (m->active_runs() == 0 && m->active_groups() == 0)) {
      *evaluated = false;
      return Status::OK();
    }
  }
  *evaluated = true;
  const size_t runs_before = m->active_runs();
  const size_t groups_before = m->active_groups();
  const Status s = m->OnEvent(event, out, lazy_out);
  query_runs_ += m->active_runs();  // delta update; modular arithmetic is
  query_runs_ -= runs_before;       // exact even when runs shrank
  query_groups_ += m->active_groups();
  query_groups_ -= groups_before;
  return s;
}

size_t PartitionedMatcher::num_partitions() const {
  return single_ != nullptr ? 1 : by_key_.size();
}

void PartitionedMatcher::SaveState(EventInterner* in, BinWriter* w) const {
  w->U64(next_match_id_);
  stats_.Snapshot().Save(w);
  w->Bool(single_ != nullptr);
  if (single_ != nullptr) {
    single_->SaveState(in, w);
    return;
  }
  std::vector<const std::pair<const Value, std::unique_ptr<Matcher>>*> entries;
  entries.reserve(by_key_.size());
  for (const auto& entry : by_key_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w->U32(static_cast<uint32_t>(entries.size()));
  for (const auto* entry : entries) {
    SaveValue(w, entry->first);
    entry->second->SaveState(in, w);
  }
}

bool PartitionedMatcher::LoadState(EventUninterner* in, BinReader* r) {
  MatcherStats stats;
  bool unpartitioned = false;
  if (!r->U64(&next_match_id_) || !stats.Load(r) || !r->Bool(&unpartitioned)) {
    return false;
  }
  if (unpartitioned != (single_ != nullptr)) {
    r->Fail();  // snapshot written under a different PARTITION BY shape
    return false;
  }
  stats_.Restore(stats);
  if (single_ != nullptr) {
    if (!single_->LoadState(in, r)) return false;
    query_runs_ = single_->active_runs();
    query_groups_ = single_->active_groups();
    return true;
  }
  uint32_t count = 0;
  if (!r->U32(&count)) return false;
  query_runs_ = 0;
  query_groups_ = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Value key;
    if (!LoadValue(r, &key)) return false;
    auto matcher = std::make_unique<Matcher>(plan_, options_, pruner_, &stats_,
                                             &next_match_id_, live_runs_,
                                             &memory_);
    if (!matcher->LoadState(in, r)) return false;
    query_runs_ += matcher->active_runs();
    query_groups_ += matcher->active_groups();
    by_key_.emplace(std::move(key), std::move(matcher));
  }
  return true;
}

size_t PartitionedMatcher::MemoryEstimate() const {
  if (single_ != nullptr) return single_->MemoryEstimate();
  size_t total = 0;
  for (const auto& [key, matcher] : by_key_) total += matcher->MemoryEstimate();
  return total;
}

}  // namespace cepr
