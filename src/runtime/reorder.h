#ifndef CEPR_RUNTIME_REORDER_H_
#define CEPR_RUNTIME_REORDER_H_

#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "event/event.h"

namespace cepr {

/// What happens to an event that arrives after the stream's release
/// watermark has moved past its timestamp (it missed the lateness bound).
enum class LatePolicy : uint8_t {
  /// Push fails with InvalidArgument; the event is untouched. The strict
  /// default: disorder beyond the bound is a caller bug.
  kReject,
  /// The event is silently discarded and counted (events_late_dropped).
  /// Timestamps are never mutated; ranked output stays exact over the
  /// events that made the bound.
  kDropAndCount,
  /// The event's timestamp is rewritten to the watermark and it is
  /// admitted. EMIT INTO derived streams always use it; elsewhere it is an
  /// explicit opt-in: it corrupts event time, so WITHIN windows and
  /// time-dependent scores see the clamped value (events_clamped counts).
  kClamp,
};

/// Stable name ("Reject" / "DropAndCount" / "Clamp") for logs and dumps.
const char* LatePolicyToString(LatePolicy policy);

/// Per-stream ingest-time disorder tolerance.
struct ReorderConfig {
  /// How far (event-time microseconds) an event may lag behind the highest
  /// timestamp seen on its stream and still be reordered into place. 0 =
  /// strict in-order ingest (today's behavior): any regression is late.
  Timestamp max_lateness_micros = 0;
  /// Fate of events that miss the bound.
  LatePolicy late_policy = LatePolicy::kReject;
};

/// Disorder counters of one reorder buffer: X(name, kind, merge) entries
/// (see "Counter families" in common/counters.h).
#define CEPR_REORDER_COUNTERS(X)                                              \
  /* Events admitted with a timestamp below the highest already seen: */      \
  /* reordered into place by the buffer. */                                   \
  X(events_reordered, kCount, kSum)                                           \
  /* Events discarded under LatePolicy::kDropAndCount. */                     \
  X(events_late_dropped, kCount, kSum)                                        \
  /* Late events rewritten to the watermark under LatePolicy::kClamp. */      \
  X(events_clamped, kCount, kSum)                                             \
  /* Peak resident events. Accumulate keeps the deepest single buffer. */     \
  X(reorder_buffer_peak, kMax, kMax)

/// Plain-value snapshot of one buffer's (or one engine's aggregated)
/// disorder counters.
struct ReorderStats : CounterValues<ReorderStats> {
  CEPR_COUNTER_VALUES(ReorderStats, CEPR_REORDER_COUNTERS)
};

/// Live disorder counters of one buffer.
struct AtomicReorderStats {
  CEPR_LIVE_COUNTERS(ReorderStats, CEPR_REORDER_COUNTERS)
};

/// Bounded out-of-order ingest buffer, one per stream, sitting between
/// event validation and everything downstream (sequence stamping, the
/// shard router, matchers, report windows). Events are held for at most
/// `max_lateness_micros` of event time and released in deterministic
/// (timestamp, arrival order) order as the release watermark — the highest
/// timestamp seen minus the lateness bound — advances past them. Because
/// no admissible future event can precede the watermark, the released
/// sequence is timestamp-monotone: downstream code keeps its in-order
/// contract, and a serial and a sharded engine fed the same arrivals
/// observe the identical released order.
///
/// With max_lateness_micros = 0 the buffer degenerates to a pass-through
/// that classifies regressions under the late policy — exactly the
/// pre-reorder strict behavior.
///
/// Single-writer (the ingest thread). The counters are single-writer
/// relaxed atomics so metrics snapshots may read them from any thread.
class ReorderBuffer {
 public:
  /// Verdict for one offered event.
  enum class Verdict : uint8_t {
    /// Admitted: buffered, or appended to `released` (possibly clamped).
    kAccepted,
    /// Late under kReject: the caller should surface an error.
    kLateRejected,
    /// Late under kDropAndCount: discarded and counted.
    kLateDropped,
  };

  ReorderBuffer() = default;
  explicit ReorderBuffer(ReorderConfig config) : config_(config) {}

  /// Offers one validated event. Zero or more events whose release became
  /// safe are appended to `released` in (timestamp, arrival) order; the
  /// offered event itself may be among them.
  Verdict Offer(Event event, std::vector<Event>* released);

  /// Drains every resident event into `released` (same order) and advances
  /// the release frontier past them, so a later arrival older than
  /// anything flushed is late. Used by Engine::Flush/Finish.
  void Flush(std::vector<Event>* released);

  /// Lowest timestamp a future event may carry without being late: the
  /// larger of (highest timestamp seen - lateness bound) and the highest
  /// timestamp already released. Meaningful once saw_event().
  Timestamp watermark() const;

  bool saw_event() const { return saw_event_; }
  /// Highest event timestamp seen on the stream.
  Timestamp high_ts() const { return high_ts_; }
  size_t resident() const { return heap_.size(); }

  const ReorderConfig& config() const { return config_; }
  /// Reconfigures the buffer; callers gate this on !saw_event() so the
  /// frontier semantics never change mid-stream.
  void set_config(ReorderConfig config) { config_ = config; }

  /// Counter snapshot (any thread).
  ReorderStats stats() const { return counters_.Snapshot(); }

  /// Checkpoint serialization: config, frontier state, resident events (in
  /// raw heap-array order, preserving arrival numbering exactly) and
  /// counters. Load rebuilds the buffer byte-identically; `schema` re-binds
  /// the resident events. Writer thread only.
  void SaveState(BinWriter* w) const;
  bool LoadState(BinReader* r, const SchemaPtr& schema);

 private:
  struct Entry {
    Timestamp ts = 0;
    uint64_t arrival = 0;
    Event event;
  };

  /// Heap comparator: `a` releases after `b`, so std::*_heap (a max-heap
  /// family) keeps the earliest (ts, arrival) entry at the front.
  static bool ReleasesLater(const Entry& a, const Entry& b) {
    if (a.ts != b.ts) return a.ts > b.ts;
    return a.arrival > b.arrival;
  }

  void ReleaseRipe(std::vector<Event>* released);

  ReorderConfig config_;
  bool saw_event_ = false;
  Timestamp high_ts_ = 0;
  /// Highest timestamp released via Flush (release frontier floor).
  Timestamp flushed_upto_ = 0;
  bool flushed_any_ = false;
  uint64_t next_arrival_ = 0;
  /// Min-heap on (ts, arrival): heap_.front() is the next event to release.
  std::vector<Entry> heap_;

  AtomicReorderStats counters_;
};

}  // namespace cepr

#endif  // CEPR_RUNTIME_REORDER_H_
