#ifndef CEPR_ENGINE_WINDOW_H_
#define CEPR_ENGINE_WINDOW_H_

#include <cstdint>
#include <string>

#include "event/event.h"
#include "plan/compiler.h"

namespace cepr {

/// Assigns events / matches to ranking report windows. The ranking layer
/// buffers matches per window; when the stream moves to a later window the
/// previous one closes and its ordered top-k is emitted.
///
///  * EMIT ON COMPLETE       -> one unbounded window (id 0); eager emission.
///  * EMIT ON WINDOW CLOSE   -> event-time tumbling windows of the WITHIN
///                              span: id = timestamp / span.
///  * EMIT EVERY n EVENTS    -> count-based windows: id = event_seq / n.
class ReportWindowAssigner {
 public:
  enum class Mode { kSingle, kTime, kCount };

  ReportWindowAssigner() = default;

  /// Derives the assigner from a compiled query's emission policy.
  static ReportWindowAssigner ForQuery(const CompiledQuery& query);

  Mode mode() const { return mode_; }
  /// Window parameters, for grouping queries with coincident boundaries
  /// (the shared layer's window groups): the kTime span / kCount size.
  Timestamp span() const { return span_; }
  int64_t every_n() const { return every_n_; }

  /// Window id for an input position (event timestamp + per-query event
  /// ordinal). Matches use the position of their detecting event.
  int64_t WindowOf(Timestamp ts, uint64_t event_ordinal) const;

  /// Inclusive [start, end) event-time bounds of a time window, for
  /// labeling emitted results; meaningful only in kTime mode.
  Timestamp WindowStart(int64_t window_id) const { return window_id * span_; }
  Timestamp WindowEnd(int64_t window_id) const { return (window_id + 1) * span_; }

  std::string ToString() const;

 private:
  Mode mode_ = Mode::kSingle;
  Timestamp span_ = 0;  // kTime
  int64_t every_n_ = 0; // kCount
};

}  // namespace cepr

#endif  // CEPR_ENGINE_WINDOW_H_
