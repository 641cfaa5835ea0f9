// Regression tests for the best-first lazy enumerator (rank/enumerator.h),
// focused on the threshold cut rule: a frontier entry whose score bound
// EQUALS the k-th retained score must still be expanded — the content
// tie-break can displace a retained match at the same score — while a
// strictly worse bound ends the walk (counted as a cutoff).

#include "rank/enumerator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/match_dag.h"
#include "plan/compiler.h"
#include "rank/topk.h"
#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::StockSchema;
using testing::Tick;

constexpr char kQuery[] =
    "SELECT a.price, MAX(b.price) "
    "FROM Stock MATCH PATTERN SEQ(a, b+) "
    "USING SKIP_TILL_ANY_MATCH "
    "WHERE a.price < 10 AND b[i].price > 20 "
    "WITHIN 100 MILLISECONDS "
    "RANK BY MAX(b.price) DESC LIMIT 1 EMIT ON WINDOW CLOSE";

EventPtr MakeTick(Timestamp ts, double price, uint64_t sequence) {
  Event e = Tick(ts, price);
  e.set_sequence(sequence);
  return std::make_shared<const Event>(std::move(e));
}

// One single-path set per call: extend(b_event) over bottom, on a shared
// group whose closed prefix binds `a`.
LazyMatchSet SingleEventSet(const DagGroupContextPtr& ctx,
                            const std::shared_ptr<MatchDagStore>& store,
                            DagNode* bottom, const EventPtr& b_event,
                            uint64_t base_id) {
  DagNode* ext = store->NewExtend(b_event, bottom);
  return LazyMatchSet(ctx, ext, base_id, b_event->sequence(),
                      b_event->timestamp());
}

TEST(EnumeratorTest, TieAtThresholdIsExpandedNotCut) {
  auto plan = CompileQueryText(kQuery, StockSchema()).value();
  ASSERT_TRUE(MatchDagEligible(*plan));
  auto store = std::make_shared<MatchDagStore>(plan.get());

  auto ctx = std::make_shared<DagGroupContext>();
  ctx->plan = plan.get();
  ctx->store = store;
  ctx->closed_bindings.resize(2);  // a, b
  const EventPtr a_event = MakeTick(0, 5, 0);
  ctx->closed_bindings[0].push_back(a_event);
  ctx->base_aggs = AggStates(&plan->pattern.agg_specs);
  ctx->base_aggs.Accept(0, *a_event);
  ctx->first_ts = a_event->timestamp();
  ctx->first_sequence = a_event->sequence();

  DagNode* bottom = store->Bottom();
  std::vector<LazyMatchSet> sets;
  // A and B tie at score 100; A enters the frontier first (and so pops
  // first on the bound tie), but B outranks it under the full order
  // (earlier detecting sequence). C is strictly worse — the cutoff.
  sets.push_back(
      SingleEventSet(ctx, store, bottom, MakeTick(5000, 100, 5), 0));
  sets.push_back(
      SingleEventSet(ctx, store, bottom, MakeTick(3000, 100, 3), 1));
  sets.push_back(
      SingleEventSet(ctx, store, bottom, MakeTick(7000, 50, 7), 2));
  store->Unref(bottom);

  TopK topk(1, /*desc=*/true);
  uint64_t enumerated = 0;
  uint64_t cutoffs = 0;
  VmState vm;
  EnumerateLazyMatches(sets, &topk, &vm, &enumerated, &cutoffs);

  // A filled the heap (threshold 100); B's equal bound was expanded anyway
  // and displaced A; C's strictly-worse bound ended the walk unexpanded.
  EXPECT_EQ(enumerated, 2u);
  EXPECT_EQ(cutoffs, 1u);
  const std::vector<Match> top = topk.Drain();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].last_sequence, 3u);
  EXPECT_DOUBLE_EQ(top[0].score, 100.0);

  sets.clear();  // release node references before the store dies
}

TEST(EnumeratorTest, NoThresholdEnumeratesEverything) {
  // Unlimited k: no bar ever forms, so every path materializes and no
  // cutoff is counted.
  auto plan = CompileQueryText(kQuery, StockSchema()).value();
  auto store = std::make_shared<MatchDagStore>(plan.get());

  auto ctx = std::make_shared<DagGroupContext>();
  ctx->plan = plan.get();
  ctx->store = store;
  ctx->closed_bindings.resize(2);
  const EventPtr a_event = MakeTick(0, 5, 0);
  ctx->closed_bindings[0].push_back(a_event);
  ctx->base_aggs = AggStates(&plan->pattern.agg_specs);
  ctx->base_aggs.Accept(0, *a_event);
  ctx->first_ts = a_event->timestamp();
  ctx->first_sequence = a_event->sequence();

  DagNode* bottom = store->Bottom();
  std::vector<LazyMatchSet> sets;
  sets.push_back(
      SingleEventSet(ctx, store, bottom, MakeTick(1000, 30, 1), 0));
  sets.push_back(
      SingleEventSet(ctx, store, bottom, MakeTick(2000, 40, 2), 1));
  store->Unref(bottom);

  TopK topk(TopK::kUnlimited, /*desc=*/true);
  uint64_t enumerated = 0;
  uint64_t cutoffs = 0;
  VmState vm;
  EnumerateLazyMatches(sets, &topk, &vm, &enumerated, &cutoffs);

  EXPECT_EQ(enumerated, 2u);
  EXPECT_EQ(cutoffs, 0u);
  const std::vector<Match> top = topk.Drain();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0].score, 40.0);
  EXPECT_DOUBLE_EQ(top[1].score, 30.0);

  sets.clear();
}

}  // namespace
}  // namespace cepr
