#ifndef CEPR_COMMON_COUNTERS_H_
#define CEPR_COMMON_COUNTERS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/binio.h"

namespace cepr {

/// Single-writer counter that any thread may read without a data race.
///
/// The writer side uses plain load+store (no read-modify-write), which is
/// only correct under the engine's threading model: every counter has
/// exactly one designated writer thread (a shard thread, or the ingest
/// thread for the router-side counters). Readers see each counter
/// atomically but observe no ordering *between* counters — snapshots are
/// per-counter exact, cross-counter approximately consistent.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter&) = delete;
  RelaxedCounter& operator=(const RelaxedCounter&) = delete;

  /// Writer thread only.
  void Add(uint64_t n) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Writer thread only: returns the pre-increment value (the engine's
  /// per-query ordinal allocator).
  uint64_t PostIncrement() {
    const uint64_t v = value_.load(std::memory_order_relaxed);
    value_.store(v + 1, std::memory_order_relaxed);
    return v;
  }

  /// Writer thread only: overwrites the value (checkpoint restore).
  void Store(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

  /// Any thread.
  uint64_t Load() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Single-writer running maximum, readable from any thread.
class RelaxedMax {
 public:
  RelaxedMax() = default;
  RelaxedMax(const RelaxedMax&) = delete;
  RelaxedMax& operator=(const RelaxedMax&) = delete;

  /// Writer thread only.
  void Observe(uint64_t v) {
    if (v > value_.load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }

  /// Writer thread only: overwrites the value (checkpoint restore).
  void Store(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

  /// Any thread.
  uint64_t Load() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// ===========================================================================
// Counter families
// ===========================================================================
//
// A counter family (MatcherStats, ShardStats, ...) is declared once, as an
// X-macro field list whose entries read X(name, kind, merge):
//   name   the field in both structs, and its JSON and text key;
//   kind   kCount (a RelaxedCounter) or kMax (a RelaxedMax), the live type;
//   merge  kSum or kMax, how Accumulate combines two snapshots.
// List order is the checkpoint byte order and the JSON key order, so
// entries are only ever appended, and appending one to a checkpointed
// family changes the snapshot format. Each entry's doc comment sits beside
// it in the list.
//
// From the list, CEPR_COUNTER_VALUES declares a snapshot struct's uint64_t
// fields and its field table, and CEPR_LIVE_COUNTERS declares a live struct's
// relaxed-atomic members of the same names plus Snapshot()/Restore(). A
// snapshot struct deriving from CounterValues<Stats> gets Accumulate, Save,
// Load, ToJson and ToString, all generic walks of the field table.

/// Whether a live counter is a running count or a running maximum.
enum class CounterKind : uint8_t { kCount, kMax };
/// How Accumulate combines one field of two snapshots.
enum class CounterMerge : uint8_t { kSum, kMax };

template <CounterKind K>
using LiveCounter =
    std::conditional_t<K == CounterKind::kMax, RelaxedMax, RelaxedCounter>;

/// One entry of a family's field list, as the generic operations see it.
template <typename Stats>
struct CounterField {
  const char* name;
  CounterKind kind;
  CounterMerge merge;
  uint64_t Stats::*value;
};

#define CEPR_COUNTER_VALUE_(name, kind, merge) uint64_t name = 0;
#define CEPR_COUNTER_FIELD_(name, kind, merge)                    \
  CounterField<CounterStats>{#name, CounterKind::kind,            \
                             CounterMerge::merge, &CounterStats::name},
#define CEPR_COUNTER_LIVE_(name, kind, merge) \
  LiveCounter<CounterKind::kind> name;
#define CEPR_COUNTER_LOAD_(name, kind, merge) s.name = name.Load();
#define CEPR_COUNTER_STORE_(name, kind, merge) name.Store(s.name);

/// Inside snapshot struct `Stats`: one uint64_t field per LIST entry, and
/// `Fields()`, the table the generic operations walk.
#define CEPR_COUNTER_VALUES(Stats, LIST)          \
  LIST(CEPR_COUNTER_VALUE_)                       \
  static constexpr auto Fields() {                \
    using CounterStats = Stats;                   \
    return std::array{LIST(CEPR_COUNTER_FIELD_)}; \
  }

/// Inside a live struct: one relaxed-atomic member per LIST entry, named as
/// in the snapshot struct `Stats`, plus Snapshot() (any thread) and
/// Restore() (writer thread only, while no other thread reads: checkpoint
/// restore).
#define CEPR_LIVE_COUNTERS(Stats, LIST)  \
  LIST(CEPR_COUNTER_LIVE_)               \
  Stats Snapshot() const {               \
    Stats s;                             \
    LIST(CEPR_COUNTER_LOAD_)             \
    return s;                            \
  }                                      \
  void Restore(const Stats& s) { LIST(CEPR_COUNTER_STORE_) }

/// `"name":value,...` over every field, without the enclosing braces.
template <typename Stats>
std::string CounterJsonFields(const Stats& s) {
  std::string out;
  for (const auto& f : Stats::Fields()) {
    if (!out.empty()) out += ',';
    out += '"';
    out += f.name;
    out += "\":" + std::to_string(s.*f.value);
  }
  return out;
}

/// `name=value ...` over every field.
template <typename Stats>
std::string CounterTextFields(const Stats& s) {
  std::string out;
  for (const auto& f : Stats::Fields()) {
    if (!out.empty()) out += ' ';
    out += f.name;
    out += '=' + std::to_string(s.*f.value);
  }
  return out;
}

/// Base of a snapshot struct declared with CEPR_COUNTER_VALUES(Stats, ...).
template <typename Stats>
struct CounterValues {
  /// Field-wise merge of another snapshot, by each field's merge rule.
  void Accumulate(const Stats& other) {
    for (const auto& f : Stats::Fields()) {
      uint64_t& mine = self().*f.value;
      const uint64_t theirs = other.*f.value;
      mine = f.merge == CounterMerge::kSum ? mine + theirs
                                           : std::max(mine, theirs);
    }
  }

  /// Checkpoint encoding: every field as a u64, in list order.
  void Save(BinWriter* w) const {
    for (const auto& f : Stats::Fields()) w->U64(self().*f.value);
  }
  bool Load(BinReader* r) {
    for (const auto& f : Stats::Fields()) {
      if (!r->U64(&(self().*f.value))) return false;
    }
    return true;
  }

  std::string ToJson() const { return "{" + CounterJsonFields(self()) + "}"; }
  std::string ToString() const { return CounterTextFields(self()); }

 private:
  Stats& self() { return static_cast<Stats&>(*this); }
  const Stats& self() const { return static_cast<const Stats&>(*this); }
};

}  // namespace cepr

#endif  // CEPR_COMMON_COUNTERS_H_
