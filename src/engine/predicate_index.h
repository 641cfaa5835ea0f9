#ifndef CEPR_ENGINE_PREDICATE_INDEX_H_
#define CEPR_ENGINE_PREDICATE_INDEX_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "event/event.h"
#include "expr/vm.h"
#include "plan/compiler.h"

namespace cepr {

/// Entry-predicate index over the queries of one stream: the shared
/// evaluation layer's per-event dispatch structure (docs/MULTIQUERY.md).
///
/// For each query it inspects the components a fresh run could begin at
/// (component 0 plus everything reachable through skippable prefixes) and
/// the event-only begin conjuncts the compiler classified there (the PR4
/// predicate-cache classes). Each such component contributes one guard:
///
///  * equality  — `attr = literal`        -> hash index on (attr, value);
///  * range     — `attr </<=/>/>= lit`    -> sorted threshold lists with a
///                                           binary-searched prefix/suffix;
///  * residual  — any other event-only conjuncts -> fallback scan list,
///                evaluated per probe under an EventOnlyContext;
///  * none      — a start component with no event-only conjunct makes the
///                query an always-candidate (probes cannot rule it out).
///
/// Probe(event) returns the deduplicated ids of queries for which at least
/// one start-component guard passes. The index is CONSERVATIVE by
/// construction: a false positive only costs a matcher visit that finds
/// nothing, while a false negative would lose matches — so every guard
/// either mirrors the evaluator's comparison semantics exactly (equality
/// uses Value::operator==/Hash, ranges compare numerically via double,
/// NULL never passes, as in expr/eval.cc) or declines to index and falls
/// back to residual evaluation / always-candidate.
///
/// Single-writer: AddQuery/RemoveQuery/Probe run on the engine's driving
/// (ingest) thread. The probe counters are single-writer relaxed atomics so
/// monitor threads may read them while the stream runs.
class PredicateIndex {
 public:
  using QueryId = uint32_t;

  /// Indexes `plan`'s entry predicates under `id` (caller-chosen, unique
  /// among live queries). `plan` must outlive the entry (the engine owns
  /// the CompiledQueryPtr).
  void AddQuery(QueryId id, const CompiledQuery* plan);

  /// Drops `id` and rebuilds the affected structures (hot remove).
  void RemoveQuery(QueryId id);

  /// Drops every query (the engine re-slots and re-adds on membership
  /// changes). Probe counters survive — they describe the stream, not one
  /// index generation.
  void Clear();

  /// Appends the ids of queries whose entry predicates may accept `event`
  /// (including every always-candidate query), deduplicated, in ascending
  /// id order. Counts one probe and the candidates it produced.
  void Probe(const Event& event, std::vector<QueryId>* out) const;

  size_t num_queries() const { return queries_.size(); }
  /// Queries a probe can never rule out (no indexable entry conjunct).
  size_t num_always_candidates() const { return always_.size(); }

  uint64_t probes() const { return probes_.Load(); }
  uint64_t candidates() const { return candidates_.Load(); }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  /// `attr </<= t` (side == kLess) or `attr >/>= t` (side == kGreater).
  struct RangeEntry {
    double threshold = 0;
    bool inclusive = false;
    QueryId query = 0;
  };
  /// All event-only begin conjuncts of one start component (the
  /// compiler's bytecode programs), evaluated under an EventOnlyContext at
  /// probe time.
  struct ResidualEntry {
    QueryId query = 0;
    int var_index = -1;
    std::vector<const BytecodeProgram*> progs;
  };
  struct RangeLists {
    /// Sorted ascending by threshold.
    std::vector<RangeEntry> less;     // passes iff value < t (or <= when incl.)
    std::vector<RangeEntry> greater;  // passes iff value > t (or >= when incl.)
  };

  void IndexQuery(QueryId id, const CompiledQuery& plan);
  void Rebuild();
  void MarkCandidate(QueryId id, std::vector<QueryId>* out) const;
  bool EvalResidual(const ResidualEntry& r, const Event& event) const;

  /// Live queries (id -> plan), the rebuild source of truth.
  std::map<QueryId, const CompiledQuery*> queries_;

  /// attr_index -> value -> queries gated on `attr = value`.
  std::unordered_map<int, std::unordered_map<Value, std::vector<QueryId>, ValueHash>>
      eq_;
  /// attr_index -> one-sided numeric threshold lists.
  std::unordered_map<int, RangeLists> range_;
  std::vector<ResidualEntry> residual_;
  std::vector<QueryId> always_;

  /// Probe-local dedup stamps, keyed by query id (mutable scratch; the
  /// probe path is single-threaded).
  mutable std::unordered_map<QueryId, uint64_t> stamp_;
  mutable uint64_t epoch_ = 0;

  /// Register file for residual bytecode evaluation (single-threaded like
  /// the rest of the probe path).
  mutable VmState vm_;

  mutable RelaxedCounter probes_;
  mutable RelaxedCounter candidates_;
};

}  // namespace cepr

#endif  // CEPR_ENGINE_PREDICATE_INDEX_H_
