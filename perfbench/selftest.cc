// Self-tests of the benchmark harness: the percentile rule, the digest's
// stability, the lateness accounting, span self time, the allocation
// counter and the JSON reader.
// Exits non-zero on the first failed check.

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "json.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

using cepr::Value;
using namespace cepr::perfbench;

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  // 10000 samples: p99 has 100 beyond it, so the target is reported.
  Tail t = TailPercentile(Iota(10000));
  Expect(t.samples == 10000, "sample count is reported");
  Expect(t.percentile == 99.0 && t.value == 9900, "p99 of 1..10000");

  // 500 samples: p99 would leave 5 beyond; the rule backs off to the
  // highest rank with 10 beyond (490 of 500 = p98).
  t = TailPercentile(Iota(500));
  Expect(t.value == 490 && t.percentile == 98.0, "p99 backs off to p98 at n=500");

  // Exactly 1000 samples: rank 990 leaves exactly 10 beyond.
  t = TailPercentile(Iota(1000));
  Expect(t.value == 990 && t.percentile == 99.0, "p99 kept at n=1000");

  // Too few samples for any rank with 10 beyond: the maximum, at p100.
  t = TailPercentile(Iota(7));
  Expect(t.value == 7 && t.percentile == 100.0, "tiny sample reports max");

  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12};
  t = TailPercentile(shuffled, 50);
  Expect(t.value == 2 && t.samples == 12, "median-rank with 10 beyond");

  Expect(PercentileSorted(Iota(4), 50) == 2, "nearest-rank p50 of 1..4");

  const std::vector<double> passes = {5, 1, 9, 2, 8};
  Expect(Best(passes, true) == 9 && Best(passes, false) == 1, "best pass");
  Expect(Best({}, true) == 0, "no passes");
  std::vector<double> lowest;
  KeepLowest(&lowest, {3, 5, 2});
  KeepLowest(&lowest, {4, 1, 2});
  Expect(lowest == std::vector<double>{3, 1, 2} && Sum(lowest) == 6,
         "element-wise minimum over passes");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
}

void TestDigestStability() {
  const std::vector<Value> row = {Value::String("S1"), Value::Float(0.25),
                                  Value::Int(-7), Value::Null(),
                                  Value::Bool(true)};
  ResultDigest a, b;
  a.Add(3, 0, 42, 0.125, row);
  b.Add(3, 0, 42, 0.125, row);
  Expect(a.value() == b.value() && a.count() == 1, "equal inputs, equal digest");
  // Pinned value: a change to the digest definition must be deliberate.
  Expect(HexDigest(a.value()) == "13bae9b02c1ced2e", "digest value is pinned");

  ResultDigest c;
  c.Add(3, 0, 42, 0.12500000000000003, row);
  Expect(c.value() != a.value(), "score compared bit for bit");
  ResultDigest d;
  d.Add(3, 1, 42, 0.125, row);
  Expect(d.value() != a.value(), "rank is part of the digest");
  ResultDigest e;
  e.Add(3, 0, 42, 0.125, {Value::String("S1"), Value::Int(0)});
  ResultDigest f;
  f.Add(3, 0, 42, 0.125, {Value::String("S1"), Value::Float(0)});
  Expect(e.value() != f.value(), "value types are part of the digest");

  ResultDigest x, y;
  x.Add(1, 0, 1, 1.0, row);
  x.Add(2, 0, 2, 2.0, row);
  y.Add(2, 0, 2, 2.0, row);
  y.Add(1, 0, 1, 1.0, row);
  Expect(x.value() != y.value(), "digest is order sensitive within a query");

  // Across queries only the per-query sequences count.
  OutputDigest p, q;
  p.For("a").Add(1, 0, 1, 1.0, row);
  p.For("b").Add(1, 0, 2, 2.0, row);
  q.For("b").Add(1, 0, 2, 2.0, row);
  q.For("a").Add(1, 0, 1, 1.0, row);
  Expect(p.Combined() == q.Combined() && p.results() == 2,
         "interleaving across queries does not change the digest");
  OutputDigest r;
  r.For("a").Add(1, 0, 1, 1.0, row);
  Expect(r.Combined() != p.Combined(), "a missing query changes the digest");
}

void TestLateness() {
  // Interval 1000 ns: sends on time, 500 ns late, 1000 ns late (not a whole
  // interval behind), 1500 ns late and 5000 ns late (late).
  LagStats lag;
  const int64_t due = 1000000;
  lag.Record(due, due, 1000);
  lag.Record(due, due + 500, 1000);
  lag.Record(due, due + 1000, 1000);
  lag.Record(due, due + 1500, 1000);
  lag.Record(due, due + 5000, 1000);
  // A send before its due time counts as zero lag.
  lag.Record(due, due - 300, 1000);
  Expect(lag.sends() == 6, "every send is recorded");
  Expect(lag.LateShare() == 2.0 / 6.0, "late = more than one interval behind");
  const Tail t = lag.LagP99Us();
  Expect(t.value == 5.0 && t.samples == 6, "lag tail in microseconds");

  LagStats more;
  more.Record(due, due + 3000, 1000);
  lag.Merge(more);
  Expect(lag.sends() == 7 && lag.LateShare() == 3.0 / 7.0,
         "merging passes keeps every send and late count");

  const OpenLoopSchedule s(100, 2.5);
  Expect(s.Due(0) == 100 && s.Due(4) == 110, "schedule is start + i * interval");
}

void TestSelfTime() {
  Tracer off(false);
  { ScopedSpan span(&off, "x"); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");

  Tracer t(true);
  const int32_t root = t.Begin("root");
  const int32_t child = t.Begin("child");
  t.End(child);
  t.End(root);
  const std::deque<Tracer::Span>& s = t.spans();
  Expect(s.size() == 2 && s[1].parent == 0 && s[0].parent == -1,
         "parent ids follow nesting");
  const auto self = t.SelfNsByName();
  const double root_ns = static_cast<double>(s[0].end_ns - s[0].start_ns);
  const double child_ns = static_cast<double>(s[1].end_ns - s[1].start_ns);
  Expect(self.at("root") == root_ns - child_ns && self.at("child") == child_ns,
         "self time excludes direct children");
}

void TestHeapCount() {
  // Nothing between Start and Stop may allocate but the blocks named here.
  void* before = ::operator new(4096);
  StartHeapCount();
  void* a = ::operator new(1000);
  ::operator delete(before);  // predates the count: must not lower it
  void* b = ::operator new[](1000);
  ::operator delete(a);
  void* c = ::operator new(300);
  const uint64_t peak = StopHeapCount();
  Expect(peak == 2000, "freeing a pre-count block leaves the peak unchanged");

  // A block counted in one count is ignored when freed in the next.
  StartHeapCount();
  ::operator delete(c);
  void* d = ::operator new(100);
  ::operator delete(d);
  void* e = ::operator new(50);
  const uint64_t second = StopHeapCount();
  Expect(second == 100, "a block of an earlier count is not subtracted");
  ::operator delete[](b);
  ::operator delete(e);
}

void TestJson() {
  auto j = Json::Parse(
      R"({"a":1.5,"b":[{"c":2},{"c":-3e2}],"d":"x\"y","e":true,"f":null})");
  Expect(j.ok(), "parses a metrics-shaped document");
  if (!j.ok()) return;
  const Json& v = j.value();
  Expect(v.Num("a") == 1.5, "number member");
  Expect(v["b"].items().size() == 2 && v["b"].items()[1].Num("c") == -300,
         "array of objects");
  Expect(v["d"].str() == "x\"y", "escaped string");
  Expect(v.Num("e") == 1 && v["missing"].kind() == Json::Kind::kNull,
         "bool and absent member");
  Expect(!Json::Parse("{\"a\":").ok() && !Json::Parse("[1,2] x").ok(),
         "rejects truncated and trailing input");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestDigestStability();
  TestLateness();
  TestSelfTime();
  TestHeapCount();
  TestJson();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
