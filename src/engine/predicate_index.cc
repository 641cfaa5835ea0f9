#include "engine/predicate_index.h"

#include <algorithm>
#include <cmath>

#include "expr/eval.h"

namespace cepr {

namespace {

/// `var.attr OP literal` in either orientation (the op is flipped when the
/// literal is on the left). The reference must be the component's own
/// variable — a plain VarRef for single components, a current-iteration
/// IterRef for Kleene components — and a real schema attribute (the
/// timestamp pseudo-attribute stays residual).
struct AttrVsLiteral {
  int attr_index = -1;
  BinaryOp op = BinaryOp::kEq;  // normalized: attr on the left
  const Value* literal = nullptr;
};

bool IsOwnEventRef(const Expr& e, int var_index, bool is_kleene) {
  if (e.var_index != var_index || e.attr_index < 0) return false;
  if (e.kind == ExprKind::kVarRef) return !is_kleene;
  return e.kind == ExprKind::kIterRef && is_kleene &&
         e.iter_kind == IterKind::kCurrent;
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq is symmetric
  }
}

bool MatchAttrVsLiteral(const Expr& e, int var_index, bool is_kleene,
                        AttrVsLiteral* out) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  const Expr& lhs = *e.children[0];
  const Expr& rhs = *e.children[1];
  if (IsOwnEventRef(lhs, var_index, is_kleene) &&
      rhs.kind == ExprKind::kLiteral) {
    out->attr_index = lhs.attr_index;
    out->op = e.binary_op;
    out->literal = &rhs.literal;
    return true;
  }
  if (IsOwnEventRef(rhs, var_index, is_kleene) &&
      lhs.kind == ExprKind::kLiteral) {
    out->attr_index = rhs.attr_index;
    out->op = FlipComparison(e.binary_op);
    out->literal = &lhs.literal;
    return true;
  }
  return false;
}

bool IsNumericLiteral(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kFloat;
}

double NumericOf(const Value& v) {
  return v.type() == ValueType::kInt ? static_cast<double>(v.AsInt())
                                     : v.AsFloat();
}

}  // namespace

void PredicateIndex::AddQuery(QueryId id, const CompiledQuery* plan) {
  queries_[id] = plan;
  IndexQuery(id, *plan);
}

void PredicateIndex::RemoveQuery(QueryId id) {
  if (queries_.erase(id) == 0) return;
  // Removal is rare (hot query retirement); a full rebuild keeps every
  // structure compact instead of tombstoning the sorted range lists.
  Rebuild();
}

void PredicateIndex::Clear() {
  queries_.clear();
  eq_.clear();
  range_.clear();
  residual_.clear();
  always_.clear();
  stamp_.clear();
}

void PredicateIndex::Rebuild() {
  eq_.clear();
  range_.clear();
  residual_.clear();
  always_.clear();
  stamp_.clear();
  for (const auto& [id, plan] : queries_) IndexQuery(id, *plan);
}

void PredicateIndex::IndexQuery(QueryId id, const CompiledQuery& plan) {
  // One guard per component a fresh run could start at: component 0 plus
  // every component reachable through a skippable prefix. (A skippable
  // component's exit/aggregate constraints are conservatively assumed to
  // pass — they can only shrink the candidate set further.)
  struct Guard {
    enum Kind { kEq, kRange, kResidual } kind = kResidual;
    AttrVsLiteral avl;                 // kEq / kRange
    ResidualEntry residual;            // kResidual
  };
  std::vector<Guard> guards;
  bool always = plan.pattern.components.empty();
  for (const CompiledComponent& comp : plan.pattern.components) {
    // Event-only conjuncts at this component: begin_preds for single
    // components, iter_preds for Kleene ones (a Kleene start binds its
    // first iteration), as classified by the compiler's cache ids.
    const auto& preds = comp.is_kleene ? comp.iter_preds : comp.begin_preds;
    const auto& cache_ids =
        comp.is_kleene ? comp.iter_pred_cache_ids : comp.begin_pred_cache_ids;
    const auto& progs =
        comp.is_kleene ? comp.iter_pred_progs : comp.begin_pred_progs;
    std::vector<const Expr*> event_only;
    std::vector<const BytecodeProgram*> event_only_progs;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (cache_ids[i] >= 0) {
        event_only.push_back(preds[i].get());
        event_only_progs.push_back(progs[i].get());
      }
    }
    if (event_only.empty()) {
      // Nothing event-only gates run creation here (e.g. only correlated
      // conjuncts, or none at all): no probe can rule this query out.
      always = true;
      break;
    }

    Guard g;
    bool picked = false;
    // Prefer the strongest single index: equality, then one-sided range.
    for (const Expr* e : event_only) {
      AttrVsLiteral avl;
      if (!MatchAttrVsLiteral(*e, comp.var_index, comp.is_kleene, &avl)) {
        continue;
      }
      if (avl.op == BinaryOp::kEq && !avl.literal->is_null()) {
        // Safe to hash: eval's `=` on non-null operands is exactly
        // Value::operator==, and a NULL event value yields NULL -> false,
        // i.e. "absent from the hash bucket". (A NULL literal is NOT
        // indexable: NULL = NULL is TRUE in CEPR.)
        g.kind = Guard::kEq;
        g.avl = avl;
        picked = true;
        break;
      }
      if (!picked && avl.op != BinaryOp::kEq && IsNumericLiteral(*avl.literal) &&
          !std::isnan(NumericOf(*avl.literal))) {
        // Numeric-literal one-sided range: eval compares via double, which
        // the sorted threshold lists mirror exactly. String ranges and the
        // timestamp pseudo-attribute stay residual. Keep scanning in case
        // an equality conjunct follows.
        g.kind = Guard::kRange;
        g.avl = avl;
        picked = true;
      }
    }
    if (!picked) {
      g.kind = Guard::kResidual;
      g.residual.query = id;
      g.residual.var_index = comp.var_index;
      g.residual.progs = std::move(event_only_progs);
    }
    guards.push_back(std::move(g));

    if (!comp.skippable()) break;  // runs cannot start past this component
  }

  if (always) {
    always_.push_back(id);
    std::sort(always_.begin(), always_.end());
    return;
  }
  for (Guard& g : guards) {
    switch (g.kind) {
      case Guard::kEq:
        eq_[g.avl.attr_index][*g.avl.literal].push_back(id);
        break;
      case Guard::kRange: {
        RangeLists& lists = range_[g.avl.attr_index];
        RangeEntry entry;
        entry.threshold = NumericOf(*g.avl.literal);
        entry.inclusive =
            g.avl.op == BinaryOp::kLe || g.avl.op == BinaryOp::kGe;
        entry.query = id;
        auto& side = (g.avl.op == BinaryOp::kLt || g.avl.op == BinaryOp::kLe)
                         ? lists.less
                         : lists.greater;
        side.push_back(entry);
        std::sort(side.begin(), side.end(),
                  [](const RangeEntry& a, const RangeEntry& b) {
                    return a.threshold < b.threshold;
                  });
        break;
      }
      case Guard::kResidual:
        residual_.push_back(std::move(g.residual));
        break;
    }
  }
}

void PredicateIndex::MarkCandidate(QueryId id, std::vector<QueryId>* out) const {
  uint64_t& stamp = stamp_[id];
  if (stamp == epoch_) return;
  stamp = epoch_;
  out->push_back(id);
}

void PredicateIndex::Probe(const Event& event,
                           std::vector<QueryId>* out) const {
  ++epoch_;
  const size_t first = out->size();

  for (QueryId id : always_) MarkCandidate(id, out);

  const std::vector<Value>& values = event.values();

  for (const auto& [attr, by_value] : eq_) {
    const Value& v = values[static_cast<size_t>(attr)];
    if (v.is_null()) continue;  // NULL = lit -> NULL -> false
    auto it = by_value.find(v);
    if (it == by_value.end()) continue;
    for (QueryId id : it->second) MarkCandidate(id, out);
  }

  for (const auto& [attr, lists] : range_) {
    const Value& v = values[static_cast<size_t>(attr)];
    if (!IsNumericLiteral(v)) continue;  // NULL (or non-numeric) -> false
    const double x = NumericOf(v);
    if (std::isnan(x)) continue;  // every comparison with NaN is false
    // less: `attr < t` passes iff x < t (<= t when inclusive). Sorted
    // ascending, so the passing entries are a suffix starting at the first
    // threshold >= x.
    {
      auto it = std::lower_bound(
          lists.less.begin(), lists.less.end(), x,
          [](const RangeEntry& e, double val) { return e.threshold < val; });
      for (; it != lists.less.end(); ++it) {
        if (it->threshold > x || it->inclusive) MarkCandidate(it->query, out);
      }
    }
    // greater: `attr > t` passes iff x > t (>= t when inclusive): the
    // prefix of thresholds below x, plus inclusive entries at exactly x.
    for (const RangeEntry& e : lists.greater) {
      if (e.threshold > x) break;
      if (e.threshold < x || e.inclusive) MarkCandidate(e.query, out);
    }
  }

  for (const ResidualEntry& r : residual_) {
    if (EvalResidual(r, event)) MarkCandidate(r.query, out);
  }

  std::sort(out->begin() + static_cast<ptrdiff_t>(first), out->end());
  probes_.Increment();
  candidates_.Add(out->size() - first);
}

bool PredicateIndex::EvalResidual(const ResidualEntry& r,
                                  const Event& event) const {
  const EventOnlyContext ctx(r.var_index, &event);
  for (const BytecodeProgram* prog : r.progs) {
    // Evaluation errors mean the binding would fail in the matcher too
    // (EvalPred treats them as false), so they exclude the candidate.
    const Result<bool> res = VmEvaluatePredicate(*prog, ctx, &vm_);
    if (!res.ok() || !res.value()) return false;
  }
  return true;
}

}  // namespace cepr
