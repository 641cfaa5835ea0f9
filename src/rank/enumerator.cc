#include "rank/enumerator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "expr/eval.h"
#include "expr/interval.h"
#include "expr/vm.h"

namespace cepr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Immutable cons cell of the suffix unwound from the DAG so far. Walking
/// root-to-bottom visits events last-first, so consing each onto the head
/// yields forward (chronological) order when read head-first — the order
/// the owning run would have folded and bound them.
struct SuffixCell {
  EventPtr event;
  std::shared_ptr<const SuffixCell> next;
};
using SuffixPtr = std::shared_ptr<const SuffixCell>;

/// EvalContext over one group's closed prefix: the trailing variable is
/// unbound (its binding is whatever DAG path is under consideration);
/// everything else answers from the group's materialized bindings and
/// refolded accumulators, exactly as the owning Run would.
class ClosedContext : public EvalContext {
 public:
  ClosedContext(const DagGroupContext* group, int trailing_var)
      : group_(group), trailing_(trailing_var) {}

  const Event* SingleEvent(int var_index) const override {
    if (var_index == trailing_) return nullptr;
    const auto& b = group_->closed_bindings[static_cast<size_t>(var_index)];
    return b.empty() ? nullptr : b.front().get();
  }
  const Event* KleeneFirst(int var_index) const override {
    return SingleEvent(var_index);
  }
  const Event* KleeneLast(int var_index) const override {
    if (var_index == trailing_) return nullptr;
    const auto& b = group_->closed_bindings[static_cast<size_t>(var_index)];
    return b.empty() ? nullptr : b.back().get();
  }
  const Event* KleeneCurrent(int) const override { return nullptr; }
  int64_t KleeneCount(int var_index) const override {
    if (var_index == trailing_) return 0;
    return static_cast<int64_t>(
        group_->closed_bindings[static_cast<size_t>(var_index)].size());
  }
  double AggValue(int agg_slot) const override {
    return group_->base_aggs.value(static_cast<size_t>(agg_slot));
  }

 private:
  const DagGroupContext* group_;  // not owned; outlives the enumeration
  int trailing_;
};

/// BoundEnv handed to DeriveBounds: closed variables answer as points
/// through ClosedContext; the trailing Kleene variable is open but FINAL —
/// its per-slot intervals (node summary folded with the already-unwound
/// suffix) and iteration-count range replace the open-future widening a
/// live Run's environment needs. Rebind() repoints the per-entry state so
/// one env object serves every derivation of the walk.
class DagBoundEnv : public BoundEnv {
 public:
  DagBoundEnv(const CompiledQuery* plan, const MatchDagStore* store)
      : plan_(plan), store_(store) {}

  void Rebind(const ClosedContext* ctx, const std::vector<Interval>* slots,
              Interval count_range) {
    ctx_ = ctx;
    slots_ = slots;
    count_range_ = count_range;
  }

  Interval AttrRange(int attr_index) const override {
    if (attr_index < 0 ||
        attr_index >= static_cast<int>(plan_->attr_ranges.size())) {
      return Interval::Whole();
    }
    return plan_->attr_ranges[static_cast<size_t>(attr_index)];
  }
  bool IsClosed(int var_index) const override {
    return var_index != store_->trailing_var();
  }
  const EvalContext& Context() const override { return *ctx_; }

  std::optional<Interval> AggSlotRange(int agg_slot) const override {
    const int dense = store_->dense_slot_of(agg_slot);
    if (dense < 0) return std::nullopt;
    return (*slots_)[static_cast<size_t>(dense)];
  }
  std::optional<Interval> KleeneCountRange(int var_index) const override {
    if (var_index != store_->trailing_var()) return std::nullopt;
    return count_range_;
  }
  bool KleeneFinal(int var_index) const override {
    return var_index == store_->trailing_var();
  }

 private:
  const CompiledQuery* plan_;
  const MatchDagStore* store_;
  const ClosedContext* ctx_ = nullptr;
  const std::vector<Interval>* slots_ = nullptr;
  Interval count_range_ = Interval::Whole();
};

/// EvalContext over one fully materialized match (bindings plus refolded
/// accumulators). Answers exactly as the legacy Run did at detection time
/// (front / back / size / slot value, no candidate installed), so SELECT
/// rows and scores come out bit-identical.
class PathContext : public EvalContext {
 public:
  PathContext(const std::vector<std::vector<EventPtr>>* bindings,
              const AggStates* aggs)
      : bindings_(bindings), aggs_(aggs) {}

  const Event* SingleEvent(int var_index) const override {
    const auto& b = (*bindings_)[static_cast<size_t>(var_index)];
    return b.empty() ? nullptr : b.front().get();
  }
  const Event* KleeneFirst(int var_index) const override {
    return SingleEvent(var_index);
  }
  const Event* KleeneLast(int var_index) const override {
    const auto& b = (*bindings_)[static_cast<size_t>(var_index)];
    return b.empty() ? nullptr : b.back().get();
  }
  const Event* KleeneCurrent(int) const override { return nullptr; }
  int64_t KleeneCount(int var_index) const override {
    return static_cast<int64_t>(
        (*bindings_)[static_cast<size_t>(var_index)].size());
  }
  double AggValue(int agg_slot) const override {
    return aggs_->value(static_cast<size_t>(agg_slot));
  }

 private:
  const std::vector<std::vector<EventPtr>>* bindings_;
  const AggStates* aggs_;
};

double FoldIdentity(AggStorageKind kind) {
  switch (kind) {
    case AggStorageKind::kMin:
      return kInf;
    case AggStorageKind::kMax:
      return -kInf;
    case AggStorageKind::kSum:
      return 0.0;
  }
  return 0.0;
}

/// The slot value of `event` under `spec`, or false when the attribute is
/// NULL / non-numeric (skipped, as AggStates::Accept skips it).
bool EventSlotValue(const AggSpec& spec, const Event& event, double* x) {
  if (spec.attr_index == kTimestampAttr) {
    *x = static_cast<double>(event.timestamp());
    return true;
  }
  const Value& v = event.value(static_cast<size_t>(spec.attr_index));
  auto num = v.AsNumeric();
  if (!num.ok()) return false;
  *x = num.value();
  return true;
}

/// Interval containing fold(P ++ S) for every path P summarized by `node`
/// given the scalar fold `s` of the fixed suffix S: min/max/sum are
/// commutative monoids, so the two folds combine per storage kind, and the
/// combine is monotone in both interval endpoints (containment preserved).
Interval CombineSlot(AggStorageKind kind, Interval node, double s) {
  switch (kind) {
    case AggStorageKind::kMin:
      return {std::min(node.lo, s), std::min(node.hi, s)};
    case AggStorageKind::kMax:
      return {std::max(node.lo, s), std::max(node.hi, s)};
    case AggStorageKind::kSum:
      return {node.lo + s, node.hi + s};
  }
  return Interval::Whole();
}

/// One frontier entry: the matches formed by every path through `node`,
/// each suffixed with the already-unwound `suffix`, within set `set`.
struct Entry {
  size_t set = 0;
  const DagNode* node = nullptr;  // borrowed; reachable from sets[set]
  SuffixPtr suffix;
  uint32_t suffix_len = 0;
  std::vector<double> fold;  // scalar suffix fold per dense slot
  double bound = 0.0;        // score bound over every match of the entry
  uint64_t seq = 0;          // push order: pop determinism on equal bounds
};

/// priority_queue comparator — top() = best: largest bound under DESC,
/// smallest under ASC; earlier push wins ties (deterministic).
struct WorseEntry {
  bool desc;
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.bound != b.bound) {
      return desc ? a.bound < b.bound : a.bound > b.bound;
    }
    return a.seq > b.seq;
  }
};

}  // namespace

void EnumerateLazyMatches(const std::vector<LazyMatchSet>& sets, TopK* topk,
                          VmState* vm, uint64_t* matches_enumerated,
                          uint64_t* enumeration_cutoffs) {
  if (sets.empty()) return;
  const CompiledQuery* plan = sets.front().group()->plan;
  const MatchDagStore* store = sets.front().group()->store.get();
  const std::vector<AggSpec>& specs = store->dense_specs();
  const int trailing = store->trailing_var();
  const bool desc = plan->rank_desc;

  std::vector<ClosedContext> ctxs;
  ctxs.reserve(sets.size());
  for (const LazyMatchSet& s : sets) {
    ctxs.emplace_back(s.group().get(), trailing);
  }

  DagBoundEnv env(plan, store);
  std::vector<Interval> slots(specs.size());
  const auto bound_of = [&](size_t set, const DagNode* node,
                            const std::vector<double>& fold, uint32_t len) {
    for (size_t i = 0; i < specs.size(); ++i) {
      slots[i] = CombineSlot(specs[i].kind, node->aggs[i], fold[i]);
    }
    env.Rebind(&ctxs[set], &slots,
               Interval::Of(static_cast<double>(node->cmin + len),
                            static_cast<double>(node->cmax + len)));
    const Interval b = DeriveBounds(*plan->score, *plan->score_prog, env, vm);
    return desc ? b.hi : b.lo;
  };

  std::vector<double> identity(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    identity[i] = FoldIdentity(specs[i].kind);
  }

  std::priority_queue<Entry, std::vector<Entry>, WorseEntry> frontier{
      WorseEntry{desc}};
  uint64_t seq = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    Entry e;
    e.set = i;
    e.node = sets[i].node();
    e.fold = identity;
    e.bound = bound_of(i, e.node, e.fold, 0);
    e.seq = seq++;
    frontier.push(std::move(e));
  }

  while (!frontier.empty()) {
    // top() is const; moving out is fine because the pop follows at once.
    Entry e = std::move(const_cast<Entry&>(frontier.top()));
    frontier.pop();
    if (topk->full()) {
      const std::optional<double> thr = topk->threshold();
      // Remaining entries all have bounds no better than this one (heap
      // order), so a STRICTLY-worse-than-bar bound ends the whole walk. An
      // equal bound continues: the content tie-break can still displace a
      // retained match at the same score. No bar at all (k == 0) retains
      // nothing, so everything left is cut.
      if (!thr.has_value() || (desc ? e.bound < *thr : e.bound > *thr)) {
        ++*enumeration_cutoffs;
        return;
      }
    }
    switch (e.node->kind) {
      case DagNode::Kind::kBottom: {
        const LazyMatchSet& s = sets[e.set];
        const DagGroupContext& g = *s.group();
        Match m;
        m.id = s.base_id();
        m.last_sequence = s.last_sequence();
        m.first_ts = g.first_ts;
        m.last_ts = s.last_ts();
        m.bindings = g.closed_bindings;
        auto& tb = m.bindings[static_cast<size_t>(trailing)];
        tb.clear();
        tb.reserve(e.suffix_len);
        for (const SuffixCell* c = e.suffix.get(); c != nullptr;
             c = c->next.get()) {
          tb.push_back(c->event);
        }
        // Refold the suffix in chronological order — the order the owning
        // run accepted those events, so float accumulation is identical.
        AggStates aggs = g.base_aggs;
        for (const EventPtr& ev : tb) aggs.Accept(trailing, *ev);
        PathContext ctx(&m.bindings, &aggs);
        m.row.reserve(plan->select_progs.size());
        for (const BytecodeProgramPtr& prog : plan->select_progs) {
          auto v = VmEvaluate(*prog, ctx, vm);
          m.row.push_back(v.ok() ? std::move(v).value() : Value::Null());
        }
        m.score = VmEvaluateScore(*plan->score_prog, ctx, vm);
        ++*matches_enumerated;
        topk->Offer(std::move(m));
        break;
      }
      case DagNode::Kind::kExtend: {
        // The child covers exactly the same matches (the node's event moves
        // from the DAG into the fixed suffix), so the bound carries over.
        Entry child;
        child.set = e.set;
        child.node = e.node->prev;
        auto cell = std::make_shared<SuffixCell>();
        cell->event = e.node->event;
        cell->next = std::move(e.suffix);
        child.suffix = std::move(cell);
        child.suffix_len = e.suffix_len + 1;
        child.fold = std::move(e.fold);
        for (size_t i = 0; i < specs.size(); ++i) {
          double x = 0.0;
          if (!EventSlotValue(specs[i], *e.node->event, &x)) continue;
          double& f = child.fold[i];
          switch (specs[i].kind) {
            case AggStorageKind::kMin:
              f = std::min(f, x);
              break;
            case AggStorageKind::kMax:
              f = std::max(f, x);
              break;
            case AggStorageKind::kSum:
              f += x;
              break;
          }
        }
        child.bound = e.bound;
        child.seq = seq++;
        frontier.push(std::move(child));
        break;
      }
      case DagNode::Kind::kUnion: {
        // The children partition this entry's matches; each gets a fresh
        // (tighter) bound from its own summaries.
        const DagNode* kids[2] = {e.node->prev, e.node->other};
        for (int j = 0; j < 2; ++j) {
          Entry child;
          child.set = e.set;
          child.node = kids[j];
          child.suffix = j == 0 ? e.suffix : std::move(e.suffix);
          child.suffix_len = e.suffix_len;
          child.fold = j == 0 ? e.fold : std::move(e.fold);
          child.bound = bound_of(e.set, kids[j], child.fold, child.suffix_len);
          child.seq = seq++;
          frontier.push(std::move(child));
        }
        break;
      }
    }
  }
}

}  // namespace cepr
