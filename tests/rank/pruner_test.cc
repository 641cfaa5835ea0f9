#include "rank/score.h"

#include <gtest/gtest.h>

#include "engine/run.h"
#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::StockSchema;
using testing::Tick;

// The canonical prunable query: dip depth, DESC.
CompiledQueryPtr DipPlan() {
  return CompileQueryText(
             "SELECT a.price FROM Stock MATCH PATTERN SEQ(a, b+, c) "
             "WHERE b[i].price < a.price AND c.price > a.price "
             "RANK BY a.price - MIN(b.price) DESC LIMIT 2",
             StockSchema())
      .value();
}

TEST(ScorePrunerTest, InactiveWithoutThreshold) {
  auto plan = DipPlan();
  ScorePruner pruner(plan->score, plan->score_prog.get(), /*desc=*/true,
                     PruneScope::kGlobal, 0);
  ::cepr::Run run(plan.get(), 0);
  EXPECT_FALSE(pruner.ShouldPrune(run));
  EXPECT_EQ(pruner.checks(), 0u);
}

TEST(ScorePrunerTest, PrunesWhenUpperBoundCannotBeatThreshold) {
  auto plan = DipPlan();
  ScorePruner pruner(plan->score, plan->score_prog.get(), true,
                     PruneScope::kGlobal, 0);

  // A run with a bound at price 50: max achievable score is 50 - 1 = 49.
  ::cepr::Run run(plan.get(), 0);
  run.BeginComponent(0, std::make_shared<const Event>(Tick(0, 50)));

  pruner.SetThreshold(40.0);
  EXPECT_FALSE(pruner.ShouldPrune(run));  // 49 > 40: might still enter

  pruner.SetThreshold(49.0);
  EXPECT_TRUE(pruner.ShouldPrune(run));  // ties lose: 49 <= 49

  pruner.SetThreshold(60.0);
  EXPECT_TRUE(pruner.ShouldPrune(run));
  EXPECT_EQ(pruner.checks(), 3u);
  EXPECT_EQ(pruner.prunes(), 2u);
}

TEST(ScorePrunerTest, TightensAsKleeneAccumulates) {
  auto plan = DipPlan();
  ScorePruner pruner(plan->score, plan->score_prog.get(), true,
                     PruneScope::kGlobal, 0);
  pruner.SetThreshold(30.0);

  ::cepr::Run run(plan.get(), 0);
  run.BeginComponent(0, std::make_shared<const Event>(Tick(0, 100)));
  // Upper bound while b is open: 100 - 1 = 99 -> keep.
  EXPECT_FALSE(pruner.ShouldPrune(run));
  run.BeginComponent(1, std::make_shared<const Event>(Tick(1, 95)));
  EXPECT_FALSE(pruner.ShouldPrune(run));  // min can still fall to 1

  // Close b by binding c... but first check: the bound for an OPEN b stays
  // optimistic; once b closes (c binds), the score is a point.
  run.BeginComponent(2, std::make_shared<const Event>(Tick(2, 101)));
  // Score is exactly 100 - 95 = 5 <= 30: prune (nothing can improve it).
  EXPECT_TRUE(pruner.ShouldPrune(run));
}

TEST(ScorePrunerTest, AscendingDirectionUsesLowerBound) {
  auto plan = CompileQueryText(
                  "SELECT a.price FROM Stock MATCH PATTERN SEQ(a, b+) "
                  "WHERE b[i].price < a.price "
                  "RANK BY COUNT(b) ASC LIMIT 1",
                  StockSchema())
                  .value();
  ScorePruner pruner(plan->score, plan->score_prog.get(), /*desc=*/false,
                     PruneScope::kGlobal, 0);

  ::cepr::Run run(plan.get(), 0);
  run.BeginComponent(0, std::make_shared<const Event>(Tick(0, 100)));
  run.BeginComponent(1, std::make_shared<const Event>(Tick(1, 50)));
  run.ExtendKleene(std::make_shared<const Event>(Tick(2, 40)));
  run.ExtendKleene(std::make_shared<const Event>(Tick(3, 30)));
  // COUNT(b) is already 3 and can only grow.
  pruner.SetThreshold(4.0);
  EXPECT_FALSE(pruner.ShouldPrune(run));  // count 3 < 4 could still rank
  pruner.SetThreshold(3.0);
  EXPECT_TRUE(pruner.ShouldPrune(run));  // >= 3 can never beat the bar
}

TEST(ScorePrunerTest, ClearThresholdDeactivates) {
  auto plan = DipPlan();
  ScorePruner pruner(plan->score, plan->score_prog.get(), true,
                     PruneScope::kGlobal, 0);
  ::cepr::Run run(plan.get(), 0);
  run.BeginComponent(0, std::make_shared<const Event>(Tick(0, 50)));
  pruner.SetThreshold(1000.0);
  EXPECT_TRUE(pruner.ShouldPrune(run));
  pruner.ClearThreshold();
  EXPECT_FALSE(pruner.ShouldPrune(run));
}

TEST(ScorePrunerTest, MatcherIntegrationCountsPrunes) {
  // Wire a pruner with an artificially high bar into a matcher: every run
  // should be pruned at creation, so no matches survive.
  auto plan = DipPlan();
  ScorePruner pruner(plan->score, plan->score_prog.get(), true,
                     PruneScope::kGlobal, 0);
  pruner.SetThreshold(1e9);
  AtomicMatcherStats stats;
  uint64_t next_id = 0;
  Matcher matcher(plan, MatcherOptions{}, &pruner, &stats, &next_id);

  std::vector<Match> out;
  for (int i = 0; i < 10; ++i) {
    matcher.OnEvent(std::make_shared<const Event>(
                        Tick(i * 1000, 100.0 - i)),
                    &out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(matcher.active_runs(), 0u);
  EXPECT_EQ(stats.runs_pruned_score.Load(), stats.runs_created.Load());
  EXPECT_GT(stats.runs_created.Load(), 0u);
}

}  // namespace
}  // namespace cepr
