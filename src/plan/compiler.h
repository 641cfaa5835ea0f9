#ifndef CEPR_PLAN_COMPILER_H_
#define CEPR_PLAN_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/interval.h"
#include "lang/analyzer.h"
#include "plan/nfa.h"
#include "plan/pattern.h"

namespace cepr {

/// An executable query plan: the decomposed pattern with pushed-down
/// predicates, the resolved output/score expressions with aggregate slots
/// assigned, attribute ranges for the pruner, and the formal NFA.
/// Immutable after compilation; shared by the runtime via shared_ptr.
struct CompiledQuery {
  AnalyzedQuery analyzed;   // owns SELECT / RANK BY expression trees
  CompiledPattern pattern;  // owns pushed-down predicate clones

  /// RANK BY expression (owned by analyzed.ast.rank_by), or nullptr.
  const Expr* score = nullptr;
  bool rank_desc = true;
  int64_t limit = -1;

  SelectionStrategy strategy = SelectionStrategy::kSkipTillNext;
  EmitPolicy emit = EmitPolicy::kOnComplete;
  int64_t emit_every_n = 0;
  Timestamp within_micros = 0;   // 0 = no time bound on the match span
  int64_t within_events = 0;     // 0 = no count bound ("WITHIN n EVENTS")
  int partition_attr_index = -1;
  /// Non-empty = results are re-ingested as events of this derived stream.
  std::string into_stream;

  /// Canonical structural signature of the compiled pattern with every
  /// literal constant, the LIMIT k and the partition attribute replaced by
  /// numbered parameter slots. Queries with equal signatures differ only
  /// in those slot values and can share one NFA template (see
  /// plan/signature.h and docs/MULTIQUERY.md).
  std::string template_signature;
  /// The extracted constants, in slot order (?0, ?1, ...).
  std::vector<Value> template_params;

  /// Compiled bytecode for SELECT items (parallel to analyzed.ast.select)
  /// and the RANK BY score (null iff `score` is), executed by the matcher,
  /// the DAG enumerator and the pruner. Predicate programs live on the
  /// pattern's components (see plan/pattern.h). Never null otherwise:
  /// Compile fails rather than leave an expression without a program.
  std::vector<BytecodeProgramPtr> select_progs;
  BytecodeProgramPtr score_prog;
  /// Total programs compiled for this query (predicates + selects + score),
  /// i.e. every expression it evaluates; surfaced as the
  /// `bytecode_compiled_preds` metric.
  int num_bytecode_programs = 0;

  /// Declared value range per schema attribute (Whole() if undeclared).
  std::vector<Interval> attr_ranges;
  /// True iff the score's static upper bound (lower bound for ASC) is
  /// finite given the declared ranges — i.e. partial-match pruning can
  /// ever fire without learned statistics.
  bool score_prunable = false;

  NfaPlan nfa;

  const BindingLayout& layout() const { return analyzed.layout; }
  const SchemaPtr& schema() const { return analyzed.schema; }

  /// Multi-line plan description (pattern decomposition + NFA summary).
  std::string Describe() const;
};

using CompiledQueryPtr = std::shared_ptr<const CompiledQuery>;

/// Compiles an analyzed query:
///  1. splits WHERE into top-level conjuncts;
///  2. pushes each conjunct onto the latest pattern component that can
///     evaluate it (begin / iter / exit / negation groups);
///  3. assigns incremental-aggregate slots across all expressions;
///  4. captures declared attribute ranges;
///  5. compiles every predicate / select / score tree to bytecode (failing
///     rather than leaving one without a program) and decides static
///     prunability;
///  6. builds the formal NFA.
///
/// Rejects conjuncts that reference a current-iteration (v[i]) of a Kleene
/// variable that is not the conjunct's latest reference, and negation
/// conjuncts that reference more than one negated variable or variables
/// bound after the negation point.
Result<CompiledQueryPtr> Compile(AnalyzedQuery analyzed);

/// Convenience: parse + analyze + compile in one step.
Result<CompiledQueryPtr> CompileQueryText(std::string_view text, SchemaPtr schema);

}  // namespace cepr

#endif  // CEPR_PLAN_COMPILER_H_
