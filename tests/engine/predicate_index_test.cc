#include "engine/predicate_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/helpers.h"

namespace cepr {
namespace {

using testing::StockSchema;
using testing::Tick;

CompiledQueryPtr MustCompile(const std::string& text) {
  auto q = CompileQueryText(text, StockSchema());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

// A two-step pattern whose anchor carries `where` as its only entry
// conjunct (the b-side conjunct is correlated, so it never gates entry).
CompiledQueryPtr AnchoredQuery(const std::string& where) {
  return MustCompile(
      "SELECT a.symbol, a.price FROM Stock MATCH PATTERN SEQ(a, b) "
      "WHERE " + where + " AND b.price > a.price "
      "WITHIN 10 MILLISECONDS "
      "RANK BY b.price DESC LIMIT 5 EMIT ON WINDOW CLOSE");
}

std::vector<uint32_t> ProbeIds(const PredicateIndex& index, const Event& e) {
  std::vector<uint32_t> out;
  index.Probe(e, &out);
  return out;
}

TEST(PredicateIndexTest, EqualityOnString) {
  PredicateIndex index;
  const auto q = AnchoredQuery("a.symbol = 'S1'");
  index.AddQuery(7, q.get());
  EXPECT_EQ(index.num_queries(), 1u);
  EXPECT_EQ(index.num_always_candidates(), 0u);
  EXPECT_EQ(ProbeIds(index, Tick(0, 50, 100, "S1")),
            (std::vector<uint32_t>{7}));
  EXPECT_TRUE(ProbeIds(index, Tick(0, 50, 100, "S2")).empty());
}

TEST(PredicateIndexTest, EqualityOnIntEitherOrientation) {
  PredicateIndex index;
  const auto q1 = AnchoredQuery("a.volume = 42");
  const auto q2 = AnchoredQuery("17 = a.volume");
  index.AddQuery(1, q1.get());
  index.AddQuery(2, q2.get());
  EXPECT_EQ(ProbeIds(index, Tick(0, 50, 42)), (std::vector<uint32_t>{1}));
  EXPECT_EQ(ProbeIds(index, Tick(0, 50, 17)), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(ProbeIds(index, Tick(0, 50, 99)).empty());
}

TEST(PredicateIndexTest, RangeBounds) {
  PredicateIndex index;
  const auto gt = AnchoredQuery("a.price > 100");
  const auto ge = AnchoredQuery("a.price >= 100");
  const auto lt = AnchoredQuery("a.price < 100");
  const auto le = AnchoredQuery("a.price <= 100");
  index.AddQuery(0, gt.get());
  index.AddQuery(1, ge.get());
  index.AddQuery(2, lt.get());
  index.AddQuery(3, le.get());
  EXPECT_EQ(index.num_always_candidates(), 0u);
  // Strictly above: the two lower bounds pass.
  EXPECT_EQ(ProbeIds(index, Tick(0, 150)), (std::vector<uint32_t>{0, 1}));
  // Exactly at the threshold: only the inclusive bounds pass.
  EXPECT_EQ(ProbeIds(index, Tick(0, 100)), (std::vector<uint32_t>{1, 3}));
  // Strictly below: the two upper bounds pass.
  EXPECT_EQ(ProbeIds(index, Tick(0, 50)), (std::vector<uint32_t>{2, 3}));
}

TEST(PredicateIndexTest, FlippedRangeOrientation) {
  PredicateIndex index;
  // `100 < a.price` is `a.price > 100`.
  const auto q = AnchoredQuery("100 < a.price");
  index.AddQuery(4, q.get());
  EXPECT_EQ(ProbeIds(index, Tick(0, 150)), (std::vector<uint32_t>{4}));
  EXPECT_TRUE(ProbeIds(index, Tick(0, 100)).empty());
  EXPECT_TRUE(ProbeIds(index, Tick(0, 50)).empty());
}

TEST(PredicateIndexTest, ResidualConjunctsEvaluateExactly) {
  PredicateIndex index;
  // Neither a pure equality nor a one-sided literal range: falls back to
  // per-probe evaluation, which must agree with the evaluator.
  const auto q = AnchoredQuery("a.price * 2 > a.volume");
  index.AddQuery(3, q.get());
  EXPECT_EQ(index.num_always_candidates(), 0u);
  EXPECT_EQ(ProbeIds(index, Tick(0, 60, 100)), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(ProbeIds(index, Tick(0, 40, 100)).empty());
}

TEST(PredicateIndexTest, AllEntryConjunctsMustHold) {
  PredicateIndex index;
  // Two event-only conjuncts on the same anchor: the index may dispatch on
  // the strongest one, but a candidate verdict must still respect both at
  // matcher time — here we only require conservative behavior: every event
  // passing BOTH is a candidate.
  const auto q = AnchoredQuery("a.price > 100 AND a.volume = 5");
  index.AddQuery(0, q.get());
  EXPECT_EQ(ProbeIds(index, Tick(0, 150, 5)), (std::vector<uint32_t>{0}));
  // An event failing the indexed conjunct is ruled out.
  const auto hit_low = ProbeIds(index, Tick(0, 150, 6));
  const auto hit_high = ProbeIds(index, Tick(0, 50, 5));
  // At least one of the two failing events must be ruled out by the
  // strongest guard; neither may be a false negative for a passing event.
  EXPECT_TRUE(hit_low.empty() || hit_high.empty());
}

TEST(PredicateIndexTest, NoEntryConjunctMeansAlwaysCandidate) {
  PredicateIndex index;
  const auto q = MustCompile(
      "SELECT a.symbol FROM Stock MATCH PATTERN SEQ(a, b) "
      "WHERE b.price > a.price WITHIN 10 MILLISECONDS "
      "RANK BY b.price DESC LIMIT 5 EMIT ON WINDOW CLOSE");
  index.AddQuery(9, q.get());
  EXPECT_EQ(index.num_always_candidates(), 1u);
  EXPECT_EQ(ProbeIds(index, Tick(0, 1)), (std::vector<uint32_t>{9}));
}

TEST(PredicateIndexTest, CorrelatedAnchorConjunctIsNotEventOnly) {
  PredicateIndex index;
  // The dip query's anchor has no event-only conjunct (everything
  // references later variables), so it must stay an always-candidate.
  const auto q = MustCompile(
      "SELECT a.symbol FROM Stock MATCH PATTERN SEQ(a, b+, c) "
      "PARTITION BY symbol "
      "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
      "  AND c.price > a.price "
      "WITHIN 100 MILLISECONDS "
      "RANK BY (a.price - MIN(b.price)) / a.price DESC "
      "LIMIT 5 EMIT ON WINDOW CLOSE");
  index.AddQuery(0, q.get());
  EXPECT_EQ(index.num_always_candidates(), 1u);
  EXPECT_EQ(ProbeIds(index, Tick(0, 500)), (std::vector<uint32_t>{0}));
}

TEST(PredicateIndexTest, ProbeOutputIsAscendingAndDeduplicated) {
  PredicateIndex index;
  const auto q5 = AnchoredQuery("a.price > 10");
  const auto q1 = AnchoredQuery("a.price > 20");
  const auto q3 = AnchoredQuery("a.volume = 100");
  index.AddQuery(5, q5.get());
  index.AddQuery(1, q1.get());
  index.AddQuery(3, q3.get());
  EXPECT_EQ(ProbeIds(index, Tick(0, 50, 100)),
            (std::vector<uint32_t>{1, 3, 5}));
}

TEST(PredicateIndexTest, RemoveQueryRebuilds) {
  PredicateIndex index;
  const auto q1 = AnchoredQuery("a.price > 10");
  const auto q2 = AnchoredQuery("a.price > 10");
  index.AddQuery(1, q1.get());
  index.AddQuery(2, q2.get());
  EXPECT_EQ(ProbeIds(index, Tick(0, 50)), (std::vector<uint32_t>{1, 2}));
  index.RemoveQuery(1);
  EXPECT_EQ(index.num_queries(), 1u);
  EXPECT_EQ(ProbeIds(index, Tick(0, 50)), (std::vector<uint32_t>{2}));
  index.RemoveQuery(2);
  EXPECT_EQ(index.num_queries(), 0u);
  EXPECT_TRUE(ProbeIds(index, Tick(0, 50)).empty());
}

TEST(PredicateIndexTest, ClearPreservesCounters) {
  PredicateIndex index;
  const auto q = AnchoredQuery("a.price > 10");
  index.AddQuery(0, q.get());
  ProbeIds(index, Tick(0, 50));
  ProbeIds(index, Tick(0, 5));
  EXPECT_EQ(index.probes(), 2u);
  EXPECT_EQ(index.candidates(), 1u);
  index.Clear();
  EXPECT_EQ(index.num_queries(), 0u);
  EXPECT_EQ(index.probes(), 2u);
  EXPECT_EQ(index.candidates(), 1u);
}

TEST(PredicateIndexTest, CountersTrackProbes) {
  PredicateIndex index;
  const auto q1 = AnchoredQuery("a.price > 10");
  const auto q2 = AnchoredQuery("a.volume = 100");
  index.AddQuery(1, q1.get());
  index.AddQuery(2, q2.get());
  ProbeIds(index, Tick(0, 50, 100));  // both candidates
  ProbeIds(index, Tick(0, 5, 1));     // neither
  EXPECT_EQ(index.probes(), 2u);
  EXPECT_EQ(index.candidates(), 2u);
}

}  // namespace
}  // namespace cepr
