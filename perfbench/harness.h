#ifndef CEPR_PERFBENCH_HARNESS_H_
#define CEPR_PERFBENCH_HARNESS_H_

// Measurement primitives of the CEPR benchmark: clocks and process
// resource probes, the percentile rule, the ranked-output digest, the
// open-loop schedule with its lateness accounting, the span recorder, and
// the run's provenance. Everything here is engine-agnostic; workloads.cc
// drives CEPR through its public API and feeds these.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "event/value.h"

namespace cepr {
namespace perfbench {

// -- Clocks and process probes ----------------------------------------------

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();
/// CPU time of the whole process (every thread), in seconds.
double ProcessCpuSeconds();
/// Counts bytes requested through operator new, process-wide, between
/// StartHeapCount and StopHeapCount; the result is the peak, over that
/// interval, of the bytes allocated in it minus those of them freed again.
/// Blocks allocated before the count are ignored when freed, so releasing
/// them cannot hide growth. Unlike RSS it is exact to the byte and not
/// masked by pages the allocator retains, so small engine state is
/// measurable. Outside a count the replaced operator new costs one relaxed
/// load and a 16-byte block header.
void StartHeapCount();
uint64_t StopHeapCount();
/// Busy-waits (sleeping first when the wait is long) until NowNs() >= t.
void WaitUntil(int64_t t_ns);

// -- Statistics ---------------------------------------------------------------

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double Median(std::vector<double> v);

/// The run statistic over per-pass figures: the best pass, i.e. the largest
/// figure when `higher_is_better`, else the smallest; 0 if empty. On a
/// shared host, neighbours slow the program for seconds at a time; a slow
/// phase only lengthens passes, so the best pass of a run is the one that
/// saw the host's quiet phase and measures the program's own speed.
double Best(const std::vector<double>& per_pass, bool higher_is_better);

/// Keeps, element by element, the lowest figure seen: `lowest` becomes
/// `pass` when empty, else lowest[i] = min(lowest[i], pass[i]) over the
/// common length. Every pass replays the same stream, so element i (a
/// chunk of the stream, or one ranked result) is the same work in each;
/// its lowest figure is the program's own cost, and what other passes add
/// is the host's interference.
void KeepLowest(std::vector<double>* lowest, const std::vector<double>& pass);
double Sum(const std::vector<double>& v);

/// A tail percentile as the benchmark reports it: the value at the target
/// percentile, or at the highest percentile that still has `min_beyond`
/// samples above it when the sample is too small for the target.
struct Tail {
  double value = 0;       ///< sample value at `percentile` (nearest rank)
  double percentile = 0;  ///< percentile actually reported
  size_t samples = 0;     ///< sample count
};

/// Nearest-rank percentile p in (0, 100] of an ascending-sorted sample.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// The percentile rule: the rank reported is min(ceil(target/100 * n),
/// n - min_beyond), so at least `min_beyond` samples always lie beyond it.
/// With n <= min_beyond there is no such rank and the maximum is reported
/// at percentile 100.
Tail TailPercentile(std::vector<double> samples, double target = 99.0,
                    size_t min_beyond = 10);

// -- Ranked-output digest -----------------------------------------------------

/// Order-sensitive FNV-1a digest of one query's ranked output over the
/// comparison surface (window_id, rank, last_sequence, score bits, row).
/// In-process RankedResults and decoded wire results hash identically.
class ResultDigest {
 public:
  void Add(int64_t window_id, uint64_t rank, uint64_t last_sequence,
           double score, const std::vector<Value>& row);
  uint64_t value() const { return hash_; }
  uint64_t count() const { return count_; }

 private:
  void Mix(const void* data, size_t n);
  void MixU64(uint64_t v) { Mix(&v, sizeof(v)); }

  uint64_t hash_ = 1469598103934665603ull;
  uint64_t count_ = 0;
};

/// Per-query digests, combined in query-name order: the ranked-output
/// contract is per query, so interleaving across queries does not count.
class OutputDigest {
 public:
  ResultDigest& For(const std::string& query) { return per_query_[query]; }
  uint64_t Combined() const;
  uint64_t results() const;

 private:
  std::map<std::string, ResultDigest> per_query_;
};

std::string HexDigest(uint64_t digest);

// -- Open-loop schedule -------------------------------------------------------

/// Fixed-rate send schedule: unit i (an event, or a frame of events) is due
/// at start + i * interval. The benchmark sends each unit no earlier than its
/// due time and times latency from the due time, so a stall is charged to
/// every unit queued behind it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double interval_ns)
      : start_ns_(start_ns), interval_ns_(interval_ns) {}

  int64_t Due(size_t unit) const {
    return start_ns_ + static_cast<int64_t>(static_cast<double>(unit) *
                                            interval_ns_);
  }

 private:
  int64_t start_ns_;
  double interval_ns_;
};

/// Generator lateness: how far after its due time each unit was actually
/// sent. A unit is late when it left more than one send interval after its
/// due time, i.e. the generator had fallen a whole unit behind.
class LagStats {
 public:
  void Reserve(size_t sends) { lags_us_.reserve(sends); }
  void Record(int64_t due_ns, int64_t sent_ns, double interval_ns);
  void Merge(const LagStats& other);
  /// Lag tail in microseconds, by the percentile rule.
  Tail LagP99Us() const;
  double LateShare() const;
  size_t sends() const { return lags_us_.size(); }

 private:
  std::vector<double> lags_us_;
  size_t late_ = 0;
};

// -- Span recorder ------------------------------------------------------------

/// In-memory span recorder. Each span has a name, a start, an end and the
/// id of the span that was open when it began (-1 for a root). Spans are
/// kept until the run ends and written out then. Disabled recorders cost
/// one branch per call site.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// True while some span is open.
  bool in_span() const { return !open_.empty(); }
  int32_t Begin(const char* name);
  void End(int32_t id);

  const std::deque<Span>& spans() const { return spans_; }
  /// Durations (ns) of every closed span named `name`.
  std::vector<double> DurationsNs(std::string_view name) const;
  /// Self time (ns) summed per span name: each span's duration minus the
  /// part its direct children cover.
  std::map<std::string, double> SelfNsByName() const;
  /// Writes "id parent name start_ns end_ns" lines, the first
  /// `max_spans` spans only.
  Status WriteTsv(const std::string& path, size_t max_spans) const;

 private:
  bool enabled_;
  // A deque, so recording never copies the spans already kept.
  std::deque<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when `tracer` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// -- Provenance ---------------------------------------------------------------

struct Provenance {
  std::string build_type;
  bool lto = false;
  std::string flags;
  unsigned nproc = 0;
  std::string commit;
  uint64_t seed = 0;

  std::string ToJson() const;
};

Provenance BuildProvenance(std::string commit, uint64_t seed);

/// Non-OK when the binary is a Debug or sanitizer build, or was compiled
/// with assertions on: such numbers are not comparable and are not
/// reported.
Status CheckReportableBuild(const Provenance& p);

// -- Metric output --------------------------------------------------------------

/// Accumulates {"name": {"value": v, "unit": u}, ...} in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::string> entries_;
};

/// Shortest round-trip decimal form of `v` (all digits kept); non-finite
/// values print as 0.
std::string JsonNumber(double v);

}  // namespace perfbench
}  // namespace cepr

#endif  // CEPR_PERFBENCH_HARNESS_H_
