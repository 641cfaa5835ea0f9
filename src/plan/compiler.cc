#include "plan/compiler.h"

#include "plan/signature.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "expr/fold.h"
#include "lang/parser.h"

namespace cepr {

namespace {

// Recursively splits top-level ANDs into conjuncts (moving subtrees out).
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kBinary && expr->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(std::move(expr->children[0]), out);
    SplitConjuncts(std::move(expr->children[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

// Reference profile of one conjunct.
struct RefProfile {
  std::vector<int> vars;            // distinct referenced var indices
  std::vector<int> current_vars;    // vars referenced via v[i]
  std::vector<int> negated_vars;    // referenced vars that are negated
};

void Profile(const Expr& e, const BindingLayout& layout, RefProfile* p) {
  if (e.kind == ExprKind::kVarRef || e.kind == ExprKind::kIterRef ||
      e.kind == ExprKind::kAggregate) {
    if (std::find(p->vars.begin(), p->vars.end(), e.var_index) == p->vars.end()) {
      p->vars.push_back(e.var_index);
    }
    if (e.kind == ExprKind::kIterRef && e.iter_kind == IterKind::kCurrent) {
      p->current_vars.push_back(e.var_index);
    }
    if (layout.var(e.var_index).is_negated) {
      if (std::find(p->negated_vars.begin(), p->negated_vars.end(), e.var_index) ==
          p->negated_vars.end()) {
        p->negated_vars.push_back(e.var_index);
      }
    }
  }
  for (const auto& c : e.children) Profile(*c, layout, p);
}

bool UsesPrevOf(const Expr& e, int var_index) {
  return e.Any([var_index](const Expr& node) {
    return node.kind == ExprKind::kIterRef && node.iter_kind == IterKind::kPrev &&
           node.var_index == var_index;
  });
}

// Minimal EvalContext for static (compile-time) bound derivation: nothing
// is bound yet.
class EmptyEvalContext : public EvalContext {
 public:
  const Event* SingleEvent(int) const override { return nullptr; }
  const Event* KleeneFirst(int) const override { return nullptr; }
  const Event* KleeneLast(int) const override { return nullptr; }
  const Event* KleeneCurrent(int) const override { return nullptr; }
  int64_t KleeneCount(int) const override { return 0; }
  double AggValue(int) const override { return 0.0; }
};

// Static BoundEnv: every variable open, ranges from the schema.
class StaticBoundEnv : public BoundEnv {
 public:
  explicit StaticBoundEnv(const std::vector<Interval>* ranges) : ranges_(ranges) {}

  Interval AttrRange(int attr_index) const override {
    if (attr_index < 0 || attr_index >= static_cast<int>(ranges_->size())) {
      return Interval::Whole();
    }
    return (*ranges_)[static_cast<size_t>(attr_index)];
  }
  bool IsClosed(int) const override { return false; }
  const EvalContext& Context() const override { return ctx_; }

 private:
  const std::vector<Interval>* ranges_;
  EmptyEvalContext ctx_;
};

}  // namespace

Result<CompiledQueryPtr> Compile(AnalyzedQuery analyzed) {
  auto cq = std::make_shared<CompiledQuery>();
  const BindingLayout& layout = analyzed.layout;

  // -- Build positive components + variable positions -----------------------
  CompiledPattern& pattern = cq->pattern;
  pattern.position_of_var.assign(layout.num_vars(), -1);
  // Negated var -> index of the positive component it precedes.
  std::vector<int> negation_target(layout.num_vars(), -1);

  for (size_t i = 0; i < layout.num_vars(); ++i) {
    const PatternVar& var = layout.var(static_cast<int>(i));
    const PatternComponentAst& ast_comp = analyzed.ast.pattern[i];
    if (var.is_negated) {
      // The analyzer guarantees a positive component follows.
      continue;
    }
    CompiledComponent comp;
    comp.var_index = static_cast<int>(i);
    comp.is_kleene = var.is_kleene;
    comp.is_optional = ast_comp.optional;
    comp.min_iters = ast_comp.min_iters;
    comp.max_iters = ast_comp.max_iters;
    comp.type_tag = var.type_tag;
    pattern.position_of_var[i] = static_cast<int>(pattern.components.size());
    pattern.components.push_back(std::move(comp));
  }
  // Attach negation watchers and record their anchor positions.
  for (size_t i = 0; i < layout.num_vars(); ++i) {
    const PatternVar& var = layout.var(static_cast<int>(i));
    if (!var.is_negated) continue;
    // The next positive variable's component hosts the watcher.
    int next_pos = -1;
    for (size_t j = i + 1; j < layout.num_vars(); ++j) {
      if (pattern.position_of_var[j] >= 0) {
        next_pos = pattern.position_of_var[j];
        break;
      }
    }
    CEPR_CHECK(next_pos >= 0) << "analyzer must reject trailing negation";
    CompiledNegation neg;
    neg.var_index = static_cast<int>(i);
    neg.type_tag = var.type_tag;
    pattern.components[static_cast<size_t>(next_pos)].negation_before =
        std::move(neg);
    negation_target[i] = next_pos;
  }

  // -- Constant folding --------------------------------------------------------
  if (analyzed.ast.where != nullptr) {
    analyzed.ast.where = FoldConstants(std::move(analyzed.ast.where));
  }
  for (SelectItemAst& item : analyzed.ast.select) {
    item.expr = FoldConstants(std::move(item.expr));
  }
  if (analyzed.ast.rank_by != nullptr) {
    analyzed.ast.rank_by = FoldConstants(std::move(analyzed.ast.rank_by));
  }

  // -- Decompose WHERE -------------------------------------------------------
  std::vector<ExprPtr> conjuncts;
  if (analyzed.ast.where != nullptr) {
    SplitConjuncts(std::move(analyzed.ast.where), &conjuncts);
    analyzed.ast.where = nullptr;  // ownership moved into the pattern below
  }

  for (ExprPtr& conj : conjuncts) {
    RefProfile profile;
    Profile(*conj, layout, &profile);

    if (profile.negated_vars.size() > 1) {
      return Status::TypeError(
          "a WHERE conjunct may reference at most one negated variable: " +
          conj->ToString());
    }

    if (profile.negated_vars.size() == 1) {
      const int neg_var = profile.negated_vars[0];
      const int anchor_pos = negation_target[static_cast<size_t>(neg_var)];
      // All other referenced variables must be bound before the negation
      // point, i.e. their components must start before `anchor_pos`.
      for (int v : profile.vars) {
        if (v == neg_var) continue;
        if (layout.var(v).is_negated) continue;  // covered by the size check
        const int pos = pattern.position_of_var[static_cast<size_t>(v)];
        if (pos >= anchor_pos) {
          return Status::TypeError(
              "negation predicate " + conj->ToString() + " references '" +
              layout.var(v).name + "', which is not yet bound at the negation");
        }
      }
      if (!profile.current_vars.empty()) {
        return Status::TypeError(
            "negation predicate cannot use current-iteration references: " +
            conj->ToString());
      }
      pattern.components[static_cast<size_t>(anchor_pos)]
          .negation_before->preds.push_back(std::move(conj));
      continue;
    }

    // Latest referenced positive component.
    int max_pos = -1;
    for (int v : profile.vars) {
      max_pos = std::max(max_pos, pattern.position_of_var[static_cast<size_t>(v)]);
    }
    if (max_pos < 0) {
      // Constant conjunct: gate the start of every run.
      max_pos = 0;
    }
    CompiledComponent& comp = pattern.components[static_cast<size_t>(max_pos)];

    // Current-iteration references are only meaningful for the latest
    // component (earlier Kleene variables are already closed there).
    for (int v : profile.current_vars) {
      if (pattern.position_of_var[static_cast<size_t>(v)] != max_pos) {
        return Status::TypeError(
            "current-iteration reference to '" + layout.var(v).name +
            "' is invalid here: a later variable is referenced in " +
            conj->ToString());
      }
    }

    if (comp.is_kleene) {
      if (!profile.current_vars.empty()) {
        comp.iter_pred_uses_prev.push_back(UsesPrevOf(*conj, comp.var_index));
        comp.iter_preds.push_back(std::move(conj));
      } else {
        // Aggregate-only constraint on the Kleene variable: checked when
        // the component tries to close.
        comp.exit_preds.push_back(std::move(conj));
      }
    } else {
      comp.begin_preds.push_back(std::move(conj));
    }
  }

  // -- Event-only predicate classification ------------------------------------
  // A conjunct whose only binding reference is the candidate event itself
  // (the component's own variable for begin predicates, v[i] for iteration
  // predicates, the negated variable for watcher predicates) evaluates to
  // the same verdict for every run testing one event. Each such conjunct
  // gets a dense cache id; the matcher evaluates it once per event under an
  // EventOnlyContext and shares the cached verdict across the partition's
  // runs. Exit predicates are never event-only (they constrain aggregates /
  // iteration counts of the run).
  int num_event_preds = 0;
  const auto classify = [&num_event_preds](const std::vector<ExprPtr>& preds,
                                           int var_index, bool is_kleene,
                                           std::vector<int>* ids) {
    ids->assign(preds.size(), -1);
    for (size_t i = 0; i < preds.size(); ++i) {
      if (IsEventOnlyPredicate(*preds[i], var_index, is_kleene)) {
        (*ids)[i] = num_event_preds++;
      }
    }
  };
  for (CompiledComponent& comp : pattern.components) {
    classify(comp.begin_preds, comp.var_index, comp.is_kleene,
             &comp.begin_pred_cache_ids);
    classify(comp.iter_preds, comp.var_index, comp.is_kleene,
             &comp.iter_pred_cache_ids);
    if (comp.negation_before.has_value()) {
      CompiledNegation& neg = *comp.negation_before;
      // The negated variable binds the candidate with single-variable
      // semantics (current-iteration references are rejected above).
      classify(neg.preds, neg.var_index, /*is_kleene=*/false,
               &neg.pred_cache_ids);
    }
  }
  pattern.num_event_preds = num_event_preds;

  // -- Aggregate slot assignment ----------------------------------------------
  std::vector<Expr*> all_exprs;
  for (CompiledComponent& comp : pattern.components) {
    for (auto& p : comp.begin_preds) all_exprs.push_back(p.get());
    for (auto& p : comp.iter_preds) all_exprs.push_back(p.get());
    for (auto& p : comp.exit_preds) all_exprs.push_back(p.get());
    if (comp.negation_before.has_value()) {
      for (auto& p : comp.negation_before->preds) all_exprs.push_back(p.get());
    }
  }
  for (SelectItemAst& item : analyzed.ast.select) all_exprs.push_back(item.expr.get());
  if (analyzed.ast.rank_by != nullptr) all_exprs.push_back(analyzed.ast.rank_by.get());
  pattern.agg_specs = AssignAggSlots(all_exprs);

  // -- Plan header fields -------------------------------------------------------
  cq->rank_desc = analyzed.ast.rank_desc;
  cq->limit = analyzed.ast.limit;
  cq->strategy = analyzed.ast.strategy;
  cq->emit = analyzed.ast.emit;
  cq->emit_every_n = analyzed.ast.emit_every_n;
  cq->within_micros = analyzed.ast.within_micros;
  cq->within_events = analyzed.ast.within_events;
  cq->into_stream = analyzed.ast.into_stream;
  cq->partition_attr_index = analyzed.partition_attr_index;

  // -- Attribute ranges ------------------------------------------------------------
  const SchemaPtr& schema = analyzed.schema;
  cq->attr_ranges.reserve(schema->num_attributes());
  for (const Attribute& attr : schema->attributes()) {
    if (attr.range.has_value()) {
      cq->attr_ranges.push_back(Interval::Of(attr.range->lo, attr.range->hi));
    } else {
      cq->attr_ranges.push_back(Interval::Whole());
    }
  }

  cq->analyzed = std::move(analyzed);
  cq->score = cq->analyzed.ast.rank_by.get();

  // -- Bytecode compilation ----------------------------------------------------
  // Every predicate / select / score tree gets a program for the VM, the
  // only evaluator (expr/vm.h). Must run after aggregate-slot assignment:
  // programs bake in agg_slot indices.
  int num_progs = 0;
  const auto compile = [&num_progs](const Expr& e) -> Result<BytecodeProgramPtr> {
    ++num_progs;
    return CompileToBytecodeShared(e);
  };
  const auto compile_group = [&compile](const std::vector<ExprPtr>& preds,
                                        std::vector<BytecodeProgramPtr>* progs)
      -> Status {
    progs->clear();
    progs->reserve(preds.size());
    for (const ExprPtr& p : preds) {
      CEPR_ASSIGN_OR_RETURN(BytecodeProgramPtr prog, compile(*p));
      progs->push_back(std::move(prog));
    }
    return Status::OK();
  };
  for (CompiledComponent& comp : cq->pattern.components) {
    CEPR_RETURN_IF_ERROR(compile_group(comp.begin_preds, &comp.begin_pred_progs));
    CEPR_RETURN_IF_ERROR(compile_group(comp.iter_preds, &comp.iter_pred_progs));
    CEPR_RETURN_IF_ERROR(compile_group(comp.exit_preds, &comp.exit_pred_progs));
    if (comp.negation_before.has_value()) {
      CEPR_RETURN_IF_ERROR(compile_group(comp.negation_before->preds,
                                         &comp.negation_before->pred_progs));
    }
  }
  cq->select_progs.reserve(cq->analyzed.ast.select.size());
  for (const SelectItemAst& item : cq->analyzed.ast.select) {
    CEPR_ASSIGN_OR_RETURN(BytecodeProgramPtr prog, compile(*item.expr));
    cq->select_progs.push_back(std::move(prog));
  }
  if (cq->score != nullptr) {
    CEPR_ASSIGN_OR_RETURN(cq->score_prog, compile(*cq->score));
    StaticBoundEnv env(&cq->attr_ranges);
    VmState vm;
    const Interval b = DeriveBounds(*cq->score, *cq->score_prog, env, &vm);
    cq->score_prunable = cq->rank_desc ? std::isfinite(b.hi) : std::isfinite(b.lo);
  }
  cq->num_bytecode_programs = num_progs;

  cq->nfa = NfaPlan::Build(cq->pattern, cq->analyzed.layout);
  ComputeTemplateSignature(cq.get());
  return CompiledQueryPtr(cq);
}

Result<CompiledQueryPtr> CompileQueryText(std::string_view text, SchemaPtr schema) {
  CEPR_ASSIGN_OR_RETURN(QueryAst ast, ParseQuery(text));
  CEPR_ASSIGN_OR_RETURN(AnalyzedQuery analyzed, Analyze(std::move(ast), schema));
  return Compile(std::move(analyzed));
}

std::string CompiledQuery::Describe() const {
  std::string out = "plan for stream " + schema()->name() + ":\n";
  out += pattern.ToString(layout());
  out += "  strategy: " + std::string(SelectionStrategyToString(strategy)) + "\n";
  if (within_micros > 0) {
    out += "  within: " + std::to_string(within_micros) + "us\n";
  }
  if (score != nullptr) {
    out += "  rank by: " + score->ToString() + (rank_desc ? " DESC" : " ASC");
    out += score_prunable ? " (prunable)\n" : " (not statically prunable)\n";
  }
  if (limit >= 0) out += "  limit: " + std::to_string(limit) + "\n";
  out += "  emit: " + std::string(EmitPolicyToString(emit)) + "\n";
  out += "  nfa states: " + std::to_string(nfa.states().size()) + "\n";
  return out;
}

}  // namespace cepr
