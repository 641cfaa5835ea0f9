#include "engine/run.h"

#include "common/logging.h"
#include "runtime/serde.h"

namespace cepr {

std::string Match::ToString() const {
  std::string out = "match#" + std::to_string(id) + " span=[" +
                    std::to_string(first_ts) + ", " + std::to_string(last_ts) +
                    "] score=" + std::to_string(score) + " row={";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += "}";
  return out;
}

Run::Run(const CompiledQuery* plan, uint64_t id, BindingArena* arena)
    : plan_(plan),
      arena_(arena),
      id_(id),
      bindings_(plan->layout().num_vars()),
      aggs_(&plan->pattern.agg_specs) {
  for (BindingList& list : bindings_) list.InitArena(arena_);
}

Run::Run(const CompiledQuery* plan, uint64_t id) : Run(plan, id, nullptr) {
  own_arena_ = std::make_shared<BindingArena>();
  arena_ = own_arena_.get();
  for (BindingList& list : bindings_) list.InitArena(arena_);
}

void Run::CopyStateFrom(const Run& src, uint64_t new_id) {
  id_ = new_id;
  next_component_ = src.next_component_;
  aggs_ = src.aggs_;
  first_ts_ = src.first_ts_;
  first_sequence_ = src.first_sequence_;
  candidate_var_ = -1;
  candidate_ = nullptr;
  for (size_t v = 0; v < bindings_.size(); ++v) {
    bindings_[v].Clear();
    bindings_[v].CopySharedFrom(src.bindings_[v]);
  }
}

void Run::Reset(uint64_t new_id) {
  id_ = new_id;
  next_component_ = 0;
  for (BindingList& list : bindings_) list.Clear();
  aggs_.Reset();
  first_ts_ = 0;
  first_sequence_ = 0;
  candidate_var_ = -1;
  candidate_ = nullptr;
}

std::unique_ptr<Run> Run::Clone(uint64_t new_id) const {
  auto copy = std::make_unique<Run>(plan_, new_id, arena_);
  copy->own_arena_ = own_arena_;  // keep a test-owned arena alive
  copy->CopyStateFrom(*this, new_id);
  return copy;
}

bool Run::kleene_open() const { return open_component() >= 0; }

int Run::open_component() const {
  const int last = next_component_ - 1;
  if (last < 0) return -1;
  return plan_->pattern.components[static_cast<size_t>(last)].is_kleene ? last : -1;
}

void Run::BeginComponent(int comp, const EventPtr& event) {
  CEPR_DCHECK(comp >= next_component_);  // may skip over skippable comps
  const CompiledComponent& cc = plan_->pattern.components[static_cast<size_t>(comp)];
  BindingList& binding = bindings_[static_cast<size_t>(cc.var_index)];
  CEPR_DCHECK(binding.empty());
  // The begin that takes the run out of its initial state binds the run's
  // first event (even if it skipped leading skippable components).
  if (next_component_ == 0) {
    first_ts_ = event->timestamp();
    first_sequence_ = event->sequence();
  }
  aggs_.Accept(cc.var_index, *event);
  binding.Append(event);
  next_component_ = comp + 1;
}

void Run::ExtendKleene(const EventPtr& event) {
  const int open = open_component();
  CEPR_DCHECK(open >= 0);
  const CompiledComponent& cc = plan_->pattern.components[static_cast<size_t>(open)];
  aggs_.Accept(cc.var_index, *event);
  bindings_[static_cast<size_t>(cc.var_index)].Append(event);
}

std::vector<std::vector<EventPtr>> Run::MaterializeBindings() const {
  std::vector<std::vector<EventPtr>> out(bindings_.size());
  for (size_t v = 0; v < bindings_.size(); ++v) {
    bindings_[v].AppendTo(&out[v]);
  }
  return out;
}

const Event* Run::LastBoundEvent() const {
  // Within one variable the last-appended event has the highest sequence,
  // so the per-list tails cover the whole binding set.
  const Event* last = nullptr;
  for (const BindingList& list : bindings_) {
    const Event* tail = list.back_event();
    if (tail != nullptr && (last == nullptr || tail->sequence() > last->sequence())) {
      last = tail;
    }
  }
  return last;
}

size_t Run::MemoryEstimate() const {
  size_t bytes = sizeof(Run) + aggs_.size() * sizeof(double);
  for (const BindingList& list : bindings_) {
    bytes += list.size() * sizeof(BindingNode);
  }
  return bytes;
}

void Run::SaveState(EventInterner* in, BinWriter* w) const {
  w->U32(static_cast<uint32_t>(next_component_));
  w->I64(first_ts_);
  w->U64(first_sequence_);
  w->U32(static_cast<uint32_t>(bindings_.size()));
  for (const BindingList& list : bindings_) {
    std::vector<EventPtr> events;
    list.AppendTo(&events);
    w->U32(static_cast<uint32_t>(events.size()));
    for (const EventPtr& e : events) in->Save(e);
  }
}

bool Run::LoadState(EventUninterner* in, BinReader* r) {
  uint32_t next_component = 0;
  uint32_t num_vars = 0;
  if (!r->U32(&next_component) || !r->I64(&first_ts_) ||
      !r->U64(&first_sequence_) || !r->U32(&num_vars)) {
    return false;
  }
  if (num_vars != bindings_.size() ||
      next_component > plan_->pattern.components.size()) {
    r->Fail();  // snapshot written by a structurally different plan
    return false;
  }
  next_component_ = static_cast<int>(next_component);
  for (size_t v = 0; v < bindings_.size(); ++v) {
    uint32_t n = 0;
    if (!r->U32(&n)) return false;
    for (uint32_t i = 0; i < n; ++i) {
      EventPtr e;
      if (!in->Load(&e)) return false;
      // Mirror BeginComponent/ExtendKleene: fold, then bind. Per-slot fold
      // order is per-variable append order, which this loop reproduces.
      aggs_.Accept(static_cast<int>(v), *e);
      bindings_[v].Append(e);
    }
  }
  return true;
}

const Event* Run::SingleEvent(int var_index) const {
  if (var_index == candidate_var_) return candidate_;
  return bindings_[static_cast<size_t>(var_index)].front_event();
}

const Event* Run::KleeneFirst(int var_index) const {
  return bindings_[static_cast<size_t>(var_index)].front_event();
}

const Event* Run::KleeneLast(int var_index) const {
  return bindings_[static_cast<size_t>(var_index)].back_event();
}

const Event* Run::KleeneCurrent(int var_index) const {
  return var_index == candidate_var_ ? candidate_ : nullptr;
}

int64_t Run::KleeneCount(int var_index) const {
  return static_cast<int64_t>(bindings_[static_cast<size_t>(var_index)].size());
}

double Run::AggValue(int agg_slot) const {
  return aggs_.value(static_cast<size_t>(agg_slot));
}

Interval Run::AttrRange(int attr_index) const {
  if (attr_index < 0 || attr_index >= static_cast<int>(plan_->attr_ranges.size())) {
    return Interval::Whole();
  }
  return plan_->attr_ranges[static_cast<size_t>(attr_index)];
}

bool Run::IsClosed(int var_index) const {
  const PatternVar& var = plan_->layout().var(var_index);
  if (var.is_negated) return true;  // never referenced by scores
  const int pos = plan_->pattern.position_of_var[static_cast<size_t>(var_index)];
  const int last_begun = next_component_ - 1;
  if (pos < last_begun) return true;
  if (pos == last_begun) {
    // A single component closes the moment it binds; an open Kleene
    // component can still accept events.
    return !plan_->pattern.components[static_cast<size_t>(pos)].is_kleene;
  }
  return false;
}

void RunRecycler::operator()(Run* run) const {
  if (pool != nullptr) {
    pool->Recycle(run);
  } else {
    delete run;
  }
}

RunPool::~RunPool() {
  for (Run* run : free_) delete run;
}

RunHandle RunPool::Acquire(uint64_t id) {
  if (!free_.empty()) {
    Run* run = free_.back();
    free_.pop_back();
    run->Reset(id);
    return RunHandle(run, RunRecycler{this});
  }
  return RunHandle(new Run(plan_, id, arena_), RunRecycler{this});
}

void RunPool::Recycle(Run* run) {
  // Release binding nodes back to the arena now; the Run object itself is
  // shelved with its capacities intact.
  run->Reset(0);
  free_.push_back(run);
}

}  // namespace cepr
