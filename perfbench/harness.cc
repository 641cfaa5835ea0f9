#include "harness.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <thread>

namespace cepr {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::atomic<bool> heap_counting{false};
// Numbers the counts; 0 marks a block allocated outside any count.
std::atomic<uint64_t> heap_epoch{0};
std::atomic<int64_t> heap_live{0};
std::atomic<int64_t> heap_peak{0};

// Prepended to every block the replaced operator new hands out: the
// requested size, and the count it was allocated in. Freeing a block
// subtracts it only when it was allocated during the current count, so
// releasing memory that predates the count (the staged input, say) cannot
// mask growth.
struct alignas(__STDCPP_DEFAULT_NEW_ALIGNMENT__) BlockHeader {
  uint64_t size;
  uint64_t epoch;
};
static_assert(sizeof(BlockHeader) == __STDCPP_DEFAULT_NEW_ALIGNMENT__);

void CountAlloc(int64_t n) {
  const int64_t live = heap_live.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t peak = heap_peak.load(std::memory_order_relaxed);
  while (live > peak && !heap_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void* CountedAlloc(std::size_t n) noexcept {
  auto* h = static_cast<BlockHeader*>(std::malloc(sizeof(BlockHeader) + n));
  if (h == nullptr) return nullptr;
  h->size = n;
  h->epoch = 0;
  if (heap_counting.load(std::memory_order_relaxed)) {
    h->epoch = heap_epoch.load(std::memory_order_relaxed);
    CountAlloc(static_cast<int64_t>(n));
  }
  return h + 1;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  BlockHeader* h = static_cast<BlockHeader*>(p) - 1;
  if (h->epoch != 0 && heap_counting.load(std::memory_order_relaxed) &&
      h->epoch == heap_epoch.load(std::memory_order_relaxed)) {
    heap_live.fetch_sub(static_cast<int64_t>(h->size), std::memory_order_relaxed);
  }
  std::free(h);
}

}  // namespace

void StartHeapCount() {
  heap_live.store(0, std::memory_order_relaxed);
  heap_peak.store(0, std::memory_order_relaxed);
  heap_epoch.fetch_add(1, std::memory_order_relaxed);
  heap_counting.store(true, std::memory_order_seq_cst);
}

uint64_t StopHeapCount() {
  heap_counting.store(false, std::memory_order_seq_cst);
  return static_cast<uint64_t>(heap_peak.load(std::memory_order_relaxed));
}

void WaitUntil(int64_t t_ns) {
  constexpr int64_t kSpinNs = 200000;
  const int64_t now = NowNs();
  if (t_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now - kSpinNs));
  }
  while (NowNs() < t_ns) {
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Best(const std::vector<double>& per_pass, bool higher_is_better) {
  if (per_pass.empty()) return 0;
  return higher_is_better ? *std::max_element(per_pass.begin(), per_pass.end())
                          : *std::min_element(per_pass.begin(), per_pass.end());
}

void KeepLowest(std::vector<double>* lowest, const std::vector<double>& pass) {
  if (lowest->empty()) {
    *lowest = pass;
    return;
  }
  const size_t n = std::min(lowest->size(), pass.size());
  for (size_t i = 0; i < n; ++i) (*lowest)[i] = std::min((*lowest)[i], pass[i]);
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail TailPercentile(std::vector<double> samples, double target,
                    size_t min_beyond) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n <= min_beyond) {
    t.value = samples.back();
    t.percentile = 100;
    return t;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(target * static_cast<double>(n) / 100.0));
  rank = std::clamp<size_t>(rank, 1, n - min_beyond);
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

// -- ResultDigest -------------------------------------------------------------

void ResultDigest::Mix(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void ResultDigest::Add(int64_t window_id, uint64_t rank,
                       uint64_t last_sequence, double score,
                       const std::vector<Value>& row) {
  uint64_t score_bits = 0;
  std::memcpy(&score_bits, &score, sizeof(score));
  MixU64(static_cast<uint64_t>(window_id));
  MixU64(rank);
  MixU64(last_sequence);
  MixU64(score_bits);
  MixU64(row.size());
  for (const Value& v : row) {
    const ValueType type = v.type();
    MixU64(static_cast<uint64_t>(type));
    switch (type) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        MixU64(v.AsBool() ? 1 : 0);
        break;
      case ValueType::kInt:
        MixU64(static_cast<uint64_t>(v.AsInt()));
        break;
      case ValueType::kFloat: {
        const double d = v.AsFloat();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(d));
        MixU64(bits);
        break;
      }
      case ValueType::kString:
        MixU64(v.AsString().size());
        Mix(v.AsString().data(), v.AsString().size());
        break;
    }
  }
  ++count_;
}

uint64_t OutputDigest::Combined() const {
  ResultDigest all;
  std::vector<Value> row(1);
  for (const auto& [name, digest] : per_query_) {
    row[0] = Value::String(name);
    all.Add(0, digest.count(), digest.value(), 0.0, row);
  }
  return all.value();
}

uint64_t OutputDigest::results() const {
  uint64_t n = 0;
  for (const auto& entry : per_query_) n += entry.second.count();
  return n;
}

std::string HexDigest(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

// -- LagStats -------------------------------------------------------------------

void LagStats::Record(int64_t due_ns, int64_t sent_ns, double interval_ns) {
  const double lag_ns = static_cast<double>(std::max<int64_t>(0, sent_ns - due_ns));
  lags_us_.push_back(lag_ns / 1e3);
  if (lag_ns > interval_ns) ++late_;
}

void LagStats::Merge(const LagStats& other) {
  lags_us_.insert(lags_us_.end(), other.lags_us_.begin(), other.lags_us_.end());
  late_ += other.late_;
}

Tail LagStats::LagP99Us() const { return TailPercentile(lags_us_); }

double LagStats::LateShare() const {
  return lags_us_.empty() ? 0.0
                          : static_cast<double>(late_) /
                                static_cast<double>(lags_us_.size());
}

// -- Tracer -----------------------------------------------------------------------

int32_t Tracer::Begin(const char* name) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), -1, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsNs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfNsByName() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
  }
  return self;
}

Status Tracer::WriteTsv(const std::string& path, size_t max_spans) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  for (size_t i = 0; i < std::min(max_spans, spans_.size()); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

// -- Provenance -------------------------------------------------------------------

namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Provenance::ToJson() const {
  return "{\"build_type\":" + JsonString(build_type) +
         ",\"lto\":" + (lto ? "true" : "false") +
         ",\"flags\":" + JsonString(flags) +
         ",\"nproc\":" + std::to_string(nproc) +
         ",\"commit\":" + JsonString(commit) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

Provenance BuildProvenance(std::string commit, uint64_t seed) {
  Provenance p;
  p.build_type = CEPR_BENCH_BUILD_TYPE;
  p.lto = CEPR_BENCH_LTO != 0;
  p.flags = CEPR_BENCH_FLAGS;
  p.nproc = std::thread::hardware_concurrency();
  p.commit = std::move(commit);
  p.seed = seed;
  return p;
}

Status CheckReportableBuild(const Provenance& p) {
  if (p.build_type != "Release" && p.build_type != "RelWithDebInfo") {
    return Status::InvalidArgument("refusing to report from a '" +
                                      p.build_type + "' build");
  }
  if (p.flags.find("-fsanitize") != std::string::npos) {
    return Status::InvalidArgument(
        "refusing to report from a sanitizer build");
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return Status::InvalidArgument("refusing to report from a sanitizer build");
#endif
#ifndef NDEBUG
  return Status::InvalidArgument(
      "refusing to report from a build with assertions enabled");
#endif
  return Status::OK();
}

// -- MetricSet ----------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back(JsonString(name) + ":{\"value\":" + JsonNumber(value) +
                     ",\"unit\":" + JsonString(unit) + "}");
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ",";
    out += entries_[i];
  }
  return out + "}";
}

}  // namespace perfbench
}  // namespace cepr

// Global allocation functions, replaced so StartHeapCount/StopHeapCount see
// every C++ allocation of the process. Every plain, array and nothrow form
// is replaced, so each block carries the header its delete reads;
// over-aligned allocations keep the library's own functions and are not
// counted.
void* operator new(std::size_t n) {
  void* p = cepr::perfbench::CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return cepr::perfbench::CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return cepr::perfbench::CountedAlloc(n);
}

void operator delete(void* p) noexcept { cepr::perfbench::CountedFree(p); }
void operator delete[](void* p) noexcept { cepr::perfbench::CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept {
  cepr::perfbench::CountedFree(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  cepr::perfbench::CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  cepr::perfbench::CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  cepr::perfbench::CountedFree(p);
}
