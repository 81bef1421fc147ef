// Self-tests of the benchmark's own statistics: the tail-percentile rule,
// the attempted/failed tally, steal shares, and span self-time arithmetic. Exits 0 when
// every check holds; run.py --self-test builds and runs it.
#include <cmath>
#include <cstdio>
#include <vector>

#include "report.h"
#include "spans.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentiles() {
  // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond it.
  Expect(!TailPercentile(Ramp(999), 99.0).has_value(), "p99 of 999 withheld");
  const auto p99 = TailPercentile(Ramp(1000), 99.0);
  Expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  Expect(!TailPercentile(Ramp(199), 95.0).has_value(), "p95 of 199 withheld");
  Expect(TailPercentile(Ramp(200), 95.0) == 190.0, "p95 of 1..200 is 190");
  Expect(!TailPercentile({}, 50.0).has_value(), "no percentile of nothing");
  // Whatever the count, a reported percentile has >= 10 samples beyond it.
  for (size_t n = 1; n <= 3000; n += 7) {
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
      const std::vector<double> v = Ramp(n);
      const auto got = TailPercentile(v, p);
      if (!got) continue;
      size_t beyond = 0;
      for (double x : v) beyond += x > *got ? 1 : 0;
      Expect(beyond >= kMinTailSamples, "reported percentile has 10 beyond");
    }
  }
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
}

void TestTally() {
  Tally t;
  Expect(!t.correct(), "nothing attempted is not correct");
  t.Pass(5);
  Expect(t.Check(true, "ok"), "passing check returns true");
  Expect(t.correct() && t.attempted() == 6 && t.failed() == 0, "6 ok");
  Expect(!t.Check(false, "deliberate failure (expected in this test)"),
         "failing check returns false");
  Expect(!t.correct() && t.attempted() == 7 && t.failed() == 1, "7 with 1 failed");
  Expect(BitEqual(0.1 + 0.2, 0.1 + 0.2) && !BitEqual(0.0, -0.0), "bit equality");
  const std::string json = ResultJson(t, {{"x_s", 0.1, "s"}});
  Expect(json == "{\"correct\": false, \"attempted\": 7, \"failed\": 1, "
                 "\"metrics\": {\"x_s\": {\"value\": 0.1, \"unit\": \"s\"}}}",
         "result line format");
  Expect(CountsJson({{"a", 2.0}, {"b", 0.5}}) == "{\"counts\": {\"a\": 2, \"b\": 0.5}}",
         "counts line format");
}

Span At(const char* name, int64_t start, int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // A properly nested tree: root [0,100) with a [10,40) (holding g [15,25))
  // and b [50,60). Self times add up to the root's duration.
  const std::vector<Span> nested = {
      At("root", 0, 100, -1), At("a", 10, 40, 0), At("g", 15, 25, 1),
      At("b", 50, 60, 0),
  };
  const std::vector<double> self = SelfSeconds(nested);
  Expect(Near(self[0], 1e-9 * 60), "root self = 100 - 30 - 10");
  Expect(Near(self[1], 1e-9 * 20), "a self = 30 - 10");
  Expect(Near(self[2], 1e-9 * 10), "leaf self = duration");
  double total = 0.0;
  for (const auto& [name, s] : SelfSecondsByName(nested)) total += s;
  Expect(Near(total, 1e-9 * 100), "nested self times add up to the root");

  // Overlapping children are subtracted once (their union), and a child
  // sticking out of its parent is clipped to it.
  const std::vector<Span> ragged = {
      At("root", 0, 100, -1), At("x", 10, 40, 0), At("y", 30, 60, 0),
      At("z", 90, 120, 0),
  };
  Expect(Near(SelfSeconds(ragged)[0], 1e-9 * 40), "root self = 100 - 50 - 10");

  Tracer tracer(true);
  const int root = tracer.Begin("root");
  { ScopedSpan child(&tracer, "child", root); }
  tracer.End(root);
  const std::vector<Span> recorded = tracer.spans();
  Expect(recorded.size() == 2 && recorded[1].parent == 0, "recorded nesting");
  Expect(recorded[1].start_ns >= recorded[0].start_ns &&
             recorded[1].end_ns <= recorded[0].end_ns,
         "child inside parent");
  Tracer off(false);
  Expect(off.Begin("x") == -1 && off.spans().empty(), "disabled tracer records nothing");
}

void TestSteal() {
  StealMeter none;
  Expect(none.share() == 0.0, "no intervals, no steal");
  StealMeter meter;
  meter.Add({100.0, 0.0}, {300.0, 20.0});  // 20 of 200 busy ticks stolen
  Expect(Near(meter.share(), 0.1), "one interval");
  meter.Add({1000.0, 50.0}, {1200.0, 110.0});  // 60 of 200 more
  Expect(Near(meter.share(), 0.2), "shares pool ticks over intervals");
  const HostCpu now = ReadHostCpu();
  Expect(now.busy >= now.steal && now.steal >= 0.0, "host CPU reading");
}

}  // namespace

int main() {
  TestPercentiles();
  TestTally();
  TestSteal();
  TestSelfTime();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
