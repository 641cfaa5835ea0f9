#ifndef CEPR_RANK_ENUMERATOR_H_
#define CEPR_RANK_ENUMERATOR_H_

#include <cstdint>
#include <vector>

#include "engine/match_dag.h"
#include "expr/vm.h"
#include "rank/topk.h"

namespace cepr {

/// Rank-ordered lazy enumeration of deferred match sets — the consumer
/// side of the shared partial-match DAG (engine/match_dag.h).
///
/// Each LazyMatchSet encodes one batch of matches: every root-to-bottom DAG
/// path, suffixed onto its group's closed prefix. Instead of materializing
/// them all, the enumerator runs best-first search over a global frontier
/// of (node, unwound-suffix) entries ordered by the score bound that
/// DeriveBounds derives from the node's aggregate summaries. Popping an
/// entry either deepens it (extend — the child covers exactly the same
/// matches, so the bound carries over), splits it (union — each child gets
/// a recomputed, tighter bound), or materializes one match (bottom).
///
/// Once `topk` is full and the best remaining bound is STRICTLY worse than
/// the k-th score, everything left is provably beaten and the walk stops.
/// Equal bounds must keep going: the content tie-break (OutranksMatch) can
/// still displace a retained match at the same score.
///
/// Offers every materialized match to `topk`; bounds, SELECT rows and
/// scores run the plan's bytecode on `vm`'s registers. `matches_enumerated`
/// counts materializations and `enumeration_cutoffs` counts early stops;
/// both are incremented (never reset) so callers aggregate across windows.
void EnumerateLazyMatches(const std::vector<LazyMatchSet>& sets, TopK* topk,
                          VmState* vm, uint64_t* matches_enumerated,
                          uint64_t* enumeration_cutoffs);

}  // namespace cepr

#endif  // CEPR_RANK_ENUMERATOR_H_
