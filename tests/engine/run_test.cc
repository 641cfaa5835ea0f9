// Direct unit tests for the Run state machine (most behaviour is covered
// through the matcher; these pin the run-level invariants the pruner and
// evaluator rely on).

#include "engine/run.h"

#include <cmath>

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::StockSchema;
using testing::Tick;

CompiledQueryPtr AbcPlan() {
  return CompileQueryText(
             "SELECT a.price FROM Stock MATCH PATTERN SEQ(a, b+, c) "
             "WHERE b[i].price < a.price "
             "RANK BY MIN(b.price) ASC LIMIT 1",
             StockSchema())
      .value();
}

EventPtr Ev(Timestamp ts, double price) {
  Event e = Tick(ts, price);
  e.set_sequence(static_cast<uint64_t>(ts / 1000));
  return std::make_shared<const Event>(std::move(e));
}

TEST(RunTest, FreshRunState) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 7);
  EXPECT_EQ(run.id(), 7u);
  EXPECT_EQ(run.next_component(), 0);
  EXPECT_FALSE(run.complete());
  EXPECT_FALSE(run.kleene_open());
  EXPECT_EQ(run.SingleEvent(0), nullptr);
  EXPECT_EQ(run.KleeneCount(1), 0);
}

TEST(RunTest, BeginAndExtendTrackState) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 0);
  run.BeginComponent(0, Ev(1000, 100));
  EXPECT_EQ(run.next_component(), 1);
  EXPECT_EQ(run.first_ts(), 1000);
  EXPECT_EQ(run.first_sequence(), 1u);
  EXPECT_FALSE(run.kleene_open());

  run.BeginComponent(1, Ev(2000, 50));
  EXPECT_TRUE(run.kleene_open());
  EXPECT_EQ(run.open_component(), 1);
  EXPECT_EQ(run.KleeneCount(1), 1);

  run.ExtendKleene(Ev(3000, 40));
  EXPECT_EQ(run.KleeneCount(1), 2);
  EXPECT_EQ(run.KleeneFirst(1)->timestamp(), 2000);
  EXPECT_EQ(run.KleeneLast(1)->timestamp(), 3000);

  run.BeginComponent(2, Ev(4000, 120));
  EXPECT_TRUE(run.complete());
  EXPECT_FALSE(run.kleene_open());
}

TEST(RunTest, AggregatesTrackAcceptedEvents) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 0);
  run.BeginComponent(0, Ev(0, 100));
  run.BeginComponent(1, Ev(1000, 50));
  run.ExtendKleene(Ev(2000, 30));
  // MIN(b.price) occupies slot 0 (the only accumulator in the plan).
  ASSERT_EQ(plan->pattern.agg_specs.size(), 1u);
  EXPECT_EQ(run.AggValue(0), 30.0);
}

TEST(RunTest, CandidateShadowsBindings) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 0);
  const Event cand = Tick(5000, 77);
  run.SetCandidate(0, &cand);
  EXPECT_EQ(run.SingleEvent(0), &cand);
  EXPECT_EQ(run.KleeneCurrent(0), &cand);
  run.ClearCandidate();
  EXPECT_EQ(run.SingleEvent(0), nullptr);
  EXPECT_EQ(run.KleeneCurrent(0), nullptr);
}

TEST(RunTest, IsClosedFollowsProgress) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 0);
  // Nothing bound: nothing closed.
  EXPECT_FALSE(run.IsClosed(0));
  EXPECT_FALSE(run.IsClosed(1));

  run.BeginComponent(0, Ev(0, 100));
  EXPECT_TRUE(run.IsClosed(0));   // single binds and closes atomically
  EXPECT_FALSE(run.IsClosed(1));

  run.BeginComponent(1, Ev(1000, 50));
  EXPECT_FALSE(run.IsClosed(1));  // Kleene stays open while last-begun

  run.BeginComponent(2, Ev(2000, 120));
  EXPECT_TRUE(run.IsClosed(1));
  EXPECT_TRUE(run.IsClosed(2));
}

TEST(RunTest, CloneIsIndependent) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 0);
  run.BeginComponent(0, Ev(0, 100));
  run.BeginComponent(1, Ev(1000, 50));

  auto clone = run.Clone(99);
  EXPECT_EQ(clone->id(), 99u);
  EXPECT_EQ(clone->next_component(), run.next_component());
  EXPECT_EQ(clone->first_ts(), run.first_ts());

  clone->ExtendKleene(Ev(2000, 40));
  EXPECT_EQ(clone->KleeneCount(1), 2);
  EXPECT_EQ(run.KleeneCount(1), 1);       // original untouched
  EXPECT_EQ(run.AggValue(0), 50.0);
  EXPECT_EQ(clone->AggValue(0), 40.0);
}

TEST(RunTest, AttrRangeComesFromPlan) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 0);
  const Interval price = run.AttrRange(1);
  EXPECT_EQ(price.lo, 1.0);
  EXPECT_EQ(price.hi, 1000.0);
  EXPECT_TRUE(std::isinf(run.AttrRange(0).hi));   // STRING attr: whole
  EXPECT_TRUE(std::isinf(run.AttrRange(-5).hi));  // out of range: whole
}

TEST(RunTest, MemoryEstimateGrowsWithBindings) {
  auto plan = AbcPlan();
  ::cepr::Run run(plan.get(), 0);
  const size_t empty = run.MemoryEstimate();
  run.BeginComponent(0, Ev(0, 100));
  run.BeginComponent(1, Ev(1000, 50));
  for (int i = 0; i < 16; ++i) run.ExtendKleene(Ev(2000 + i * 1000, 40 - i));
  EXPECT_GT(run.MemoryEstimate(), empty);
}

TEST(BindingListTest, SharedForkKeepsPrefixAliveAfterClear) {
  BindingArena arena;
  BindingList a;
  a.InitArena(&arena);
  a.Append(Ev(1000, 10));
  a.Append(Ev(2000, 20));
  a.Append(Ev(3000, 30));

  BindingList b;
  b.InitArena(&arena);
  b.CopySharedFrom(a);
  b.Append(Ev(4000, 40));
  // The fork added exactly one node; the prefix is shared, not copied.
  EXPECT_EQ(arena.constructed(), 4u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.front_event()->timestamp(), 1000);
  EXPECT_EQ(b.back_event()->timestamp(), 4000);

  // Dropping the fork releases only its unshared suffix.
  b.Clear();
  ASSERT_EQ(a.size(), 3u);
  std::vector<EventPtr> events;
  a.AppendTo(&events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0]->timestamp(), 1000);
  EXPECT_EQ(events[1]->timestamp(), 2000);
  EXPECT_EQ(events[2]->timestamp(), 3000);
}

TEST(RunTest, CloneSharesBoundPrefix) {
  auto plan = AbcPlan();
  BindingArena arena;
  ::cepr::Run run(plan.get(), 0, &arena);
  run.BeginComponent(0, Ev(0, 100));
  run.BeginComponent(1, Ev(1000, 50));
  run.ExtendKleene(Ev(2000, 40));

  auto clone = run.Clone(1);
  clone->ExtendKleene(Ev(3000, 30));
  EXPECT_EQ(run.KleeneCount(1), 2);
  EXPECT_EQ(clone->KleeneCount(1), 3);
  EXPECT_EQ(clone->AggValue(0), 30.0);
  const auto original = run.MaterializeBindings();
  const auto forked = clone->MaterializeBindings();
  ASSERT_EQ(original.size(), forked.size());
  for (size_t v = 0; v < original.size(); ++v) {
    // The fork's bindings start with exactly the original's events.
    ASSERT_GE(forked[v].size(), original[v].size());
    for (size_t i = 0; i < original[v].size(); ++i) {
      EXPECT_EQ(forked[v][i].get(), original[v][i].get());
    }
  }
  EXPECT_EQ(clone->LastBoundEvent()->timestamp(), 3000);
  // One node per bound event plus one for the fork's extension: the clone
  // shares the bound prefix instead of copying it.
  EXPECT_EQ(arena.constructed(), 4u);
}

TEST(RunPoolTest, RecycleReusesRunObject) {
  auto plan = AbcPlan();
  RunMemory memory(plan.get());
  RunHandle run = memory.runs.Acquire(1);
  run->BeginComponent(0, Ev(0, 100));
  run->BeginComponent(1, Ev(1000, 50));
  const ::cepr::Run* address = run.get();
  run.reset();  // recycles into the pool (and frees the binding nodes)

  RunHandle reused = memory.runs.Acquire(2);
  EXPECT_EQ(reused.get(), address);
  EXPECT_EQ(reused->id(), 2u);
  EXPECT_EQ(reused->next_component(), 0);
  EXPECT_EQ(reused->KleeneCount(1), 0);
  EXPECT_EQ(reused->SingleEvent(0), nullptr);
}

TEST(MatchTest, ToStringMentionsScoreAndRow) {
  Match m;
  m.id = 3;
  m.first_ts = 10;
  m.last_ts = 20;
  m.score = 1.5;
  m.row = {Value::Int(4), Value::String("x")};
  const std::string s = m.ToString();
  EXPECT_NE(s.find("match#3"), std::string::npos);
  EXPECT_NE(s.find("4"), std::string::npos);
  EXPECT_NE(s.find("'x'"), std::string::npos);
}

}  // namespace
}  // namespace cepr
