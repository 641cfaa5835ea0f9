#include "engine/window.h"

#include "common/logging.h"

namespace cepr {

ReportWindowAssigner ReportWindowAssigner::ForQuery(const CompiledQuery& query) {
  ReportWindowAssigner a;
  switch (query.emit) {
    case EmitPolicy::kOnComplete:
      a.mode_ = Mode::kSingle;
      break;
    case EmitPolicy::kOnWindowClose:
      CEPR_CHECK(query.within_micros > 0)
          << "analyzer must enforce WITHIN for EMIT ON WINDOW CLOSE";
      a.mode_ = Mode::kTime;
      a.span_ = query.within_micros;
      break;
    case EmitPolicy::kEveryNEvents:
      CEPR_CHECK(query.emit_every_n > 0);
      a.mode_ = Mode::kCount;
      a.every_n_ = query.emit_every_n;
      break;
  }
  return a;
}

int64_t ReportWindowAssigner::WindowOf(Timestamp ts, uint64_t event_ordinal) const {
  switch (mode_) {
    case Mode::kSingle:
      return 0;
    case Mode::kTime:
      return ts >= 0 ? ts / span_ : (ts - span_ + 1) / span_;
    case Mode::kCount:
      return static_cast<int64_t>(event_ordinal) / every_n_;
  }
  return 0;
}

std::string ReportWindowAssigner::ToString() const {
  switch (mode_) {
    case Mode::kSingle:
      return "single window";
    case Mode::kTime:
      return "tumbling " + std::to_string(span_) + "us windows";
    case Mode::kCount:
      return "every " + std::to_string(every_n_) + " events";
  }
  return "?";
}

}  // namespace cepr
