#include "runtime/reorder.h"

#include <algorithm>
#include <limits>

#include "common/binio.h"
#include "runtime/serde.h"

namespace cepr {

const char* LatePolicyToString(LatePolicy policy) {
  switch (policy) {
    case LatePolicy::kReject:
      return "Reject";
    case LatePolicy::kDropAndCount:
      return "DropAndCount";
    case LatePolicy::kClamp:
      return "Clamp";
  }
  return "?";
}

Timestamp ReorderBuffer::watermark() const {
  // Saturating high_ts - lateness, floored by anything already flushed out.
  Timestamp wm = std::numeric_limits<Timestamp>::min();
  if (saw_event_) {
    wm = high_ts_ >= std::numeric_limits<Timestamp>::min() +
                         config_.max_lateness_micros
             ? high_ts_ - config_.max_lateness_micros
             : std::numeric_limits<Timestamp>::min();
  }
  if (flushed_any_ && flushed_upto_ > wm) wm = flushed_upto_;
  return wm;
}

ReorderBuffer::Verdict ReorderBuffer::Offer(Event event,
                                            std::vector<Event>* released) {
  const Timestamp ts = event.timestamp();
  if (saw_event_ && ts < watermark()) {
    switch (config_.late_policy) {
      case LatePolicy::kReject:
        return Verdict::kLateRejected;
      case LatePolicy::kDropAndCount:
        counters_.events_late_dropped.Increment();
        return Verdict::kLateDropped;
      case LatePolicy::kClamp:
        counters_.events_clamped.Increment();
        event.set_timestamp(watermark());
        break;
    }
  } else if (saw_event_ && ts < high_ts_) {
    counters_.events_reordered.Increment();
  }

  Entry entry;
  entry.ts = event.timestamp();
  entry.arrival = next_arrival_++;
  entry.event = std::move(event);
  if (entry.ts > high_ts_ || !saw_event_) high_ts_ = entry.ts;
  saw_event_ = true;
  heap_.push_back(std::move(entry));
  std::push_heap(heap_.begin(), heap_.end(), ReleasesLater);
  counters_.reorder_buffer_peak.Observe(heap_.size());

  ReleaseRipe(released);
  return Verdict::kAccepted;
}

void ReorderBuffer::ReleaseRipe(std::vector<Event>* released) {
  const Timestamp frontier = watermark();
  while (!heap_.empty() && heap_.front().ts <= frontier) {
    std::pop_heap(heap_.begin(), heap_.end(), ReleasesLater);
    released->push_back(std::move(heap_.back().event));
    heap_.pop_back();
  }
}

void ReorderBuffer::Flush(std::vector<Event>* released) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), ReleasesLater);
    flushed_upto_ = heap_.back().ts;
    flushed_any_ = true;
    released->push_back(std::move(heap_.back().event));
    heap_.pop_back();
  }
}

void ReorderBuffer::SaveState(BinWriter* w) const {
  w->I64(config_.max_lateness_micros);
  w->U8(static_cast<uint8_t>(config_.late_policy));
  w->Bool(saw_event_);
  w->I64(high_ts_);
  w->I64(flushed_upto_);
  w->Bool(flushed_any_);
  w->U64(next_arrival_);
  // Raw array order: the vector already satisfies the heap property, so a
  // verbatim restore reproduces every future pop order bit-exactly.
  w->U32(static_cast<uint32_t>(heap_.size()));
  for (const Entry& e : heap_) {
    w->I64(e.ts);
    w->U64(e.arrival);
    SaveEventBody(w, e.event);
  }
  stats().Save(w);
}

bool ReorderBuffer::LoadState(BinReader* r, const SchemaPtr& schema) {
  uint8_t policy = 0;
  uint32_t resident = 0;
  heap_.clear();
  if (!r->I64(&config_.max_lateness_micros) || !r->U8(&policy) ||
      !r->Bool(&saw_event_) || !r->I64(&high_ts_) || !r->I64(&flushed_upto_) ||
      !r->Bool(&flushed_any_) || !r->U64(&next_arrival_) || !r->U32(&resident)) {
    return false;
  }
  if (policy > static_cast<uint8_t>(LatePolicy::kClamp)) {
    r->Fail();
    return false;
  }
  config_.late_policy = static_cast<LatePolicy>(policy);
  heap_.reserve(resident);
  for (uint32_t i = 0; i < resident; ++i) {
    Entry e;
    if (!r->I64(&e.ts) || !r->U64(&e.arrival) ||
        !LoadEventBody(r, schema, &e.event)) {
      return false;
    }
    heap_.push_back(std::move(e));
  }
  ReorderStats counters;
  if (!counters.Load(r)) return false;
  counters_.Restore(counters);
  return true;
}

}  // namespace cepr
