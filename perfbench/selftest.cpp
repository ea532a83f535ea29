// Tests for the benchmark's own arithmetic: the tail rule, span self time
// and coverage, the set-up estimate and the CPU rotation. Exit status 0 when all pass.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what.c_str());
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12; }

std::vector<double> Range(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

void TestTailRule() {
  // Ten samples cannot have ten beyond any of them.
  Expect(!TailOf(Range(10)).valid, "tail of 10 samples is undefined");
  // Eleven: the smallest has exactly ten beyond it.
  const Tail t11 = TailOf(Range(11));
  Expect(t11.valid && t11.value == 1.0, "tail of 11 is the minimum");
  Expect(Near(t11.percentile, 100.0 / 11.0), "tail percentile of 11");
  // 100 samples: the 90th, with 91..100 beyond it.
  const Tail t100 = TailOf(Range(100));
  Expect(t100.value == 90.0 && Near(t100.percentile, 90.0), "p90 of 100");
  // 1000 samples: p99.
  const Tail t1000 = TailOf(Range(1000));
  Expect(t1000.value == 990.0 && Near(t1000.percentile, 99.0), "p99 of 1000");
  // Input order does not matter, and exactly ten values exceed the tail.
  std::vector<double> shuffled = Range(37);
  std::reverse(shuffled.begin(), shuffled.end());
  const Tail t37 = TailOf(shuffled);
  int beyond = 0;
  for (const double v : shuffled) beyond += v > t37.value ? 1 : 0;
  Expect(beyond == kTailBeyond, "ten beyond, unsorted");
}

void TestMedian() {
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  Expect(Median({}) == 0.0, "empty median");
}

Span MakeSpan(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  std::vector<Span> spans = {
      MakeSpan("op", 0.0, 10.0, -1),        // 0
      MakeSpan("a", 1.0, 3.0, 0),           // 1
      MakeSpan("b", 2.0, 5.0, 0),           // 2: overlaps a -> [1, 5]
      MakeSpan("c", 9.0, 12.0, 0),          // 3: clipped to [9, 10]
      MakeSpan("grandchild", 1.5, 2.5, 1),  // 4: not a direct child of op
      MakeSpan("op", 20.0, 24.0, -1),       // 5: no children
  };
  Expect(Near(SelfSeconds(spans, 0), 10.0 - 4.0 - 1.0), "merged + clipped");
  Expect(Near(SelfSeconds(spans, 1), 2.0 - 1.0), "self time under child");
  Expect(Near(SelfSeconds(spans, 5), 4.0), "leaf self time is its duration");

  const SpanTotals ops = TotalsFor(spans, "op");
  Expect(ops.count == 2 && Near(ops.seconds, 14.0) &&
             Near(ops.self_seconds, 5.0 + 4.0),
         "per-name totals");
  // Children cover 5 of the 14 op seconds.
  Expect(Near(Coverage(spans, "op"), 5.0 / 14.0), "coverage");
}

void TestTracerNesting() {
  Tracer tracer(true);
  {
    ScopedSpan op(&tracer, "op", 7);
    { ScopedSpan child(&tracer, "child", 7); }
  }
  std::thread other([&tracer] { ScopedSpan root(&tracer, "other", 8); });
  other.join();
  const std::vector<Span> spans = tracer.Spans();
  Expect(spans.size() == 3, "three spans recorded");
  if (spans.size() != 3) return;
  Expect(spans[0].parent == -1 && spans[1].parent == 0,
         "child nests under the open span");
  Expect(spans[2].parent == -1, "another thread's span is a root");
  Expect(spans[1].op == 7 && spans[2].op == 8, "op ids kept");
  Expect(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end,
         "child inside parent");

  Tracer off(false);
  { ScopedSpan ignored(&off, "op", 1); }
  Expect(off.Spans().empty(), "disabled tracer records nothing");
}

void TestPasses() {
  Expect(PassesFor(16.0, 4.5, 5) == 4, "passes by time");
  Expect(PassesFor(1.0, 4.5, 5) == 3, "enough passes for a tail");
  Expect(PassesFor(1.0, 6.0, 40) == 1, "one long pass has a tail");
  Expect(PassesFor(0.01, 0.015, 1) == 11, "single-op passes");
}

void TestSetup() {
  SetupTimer setup;
  for (const double s : {1.0, 1.2, 9.0}) setup.AddUnit(s);
  Expect(Near(setup.SetupSeconds(), 3 * 1.2), "units x median unit time");
}

void TestCpuRotation() {
  // Each Next() lands on another CPU until every allowed one was visited.
  std::thread worker([] {
    CpuRotation rotation;
    std::vector<int> seen;
    for (std::size_t k = 0; k < rotation.Cpus(); ++k) {
      rotation.Next();
      seen.push_back(sched_getcpu());
    }
    std::sort(seen.begin(), seen.end());
    const bool distinct =
        std::adjacent_find(seen.begin(), seen.end()) == seen.end();
    Expect(rotation.Cpus() < 2 || distinct, "rotation visits every CPU");
  });
  worker.join();
}

}  // namespace

int main() {
  TestTailRule();
  TestMedian();
  TestSelfTime();
  TestTracerNesting();
  TestPasses();
  TestSetup();
  TestCpuRotation();
  if (failures > 0) {
    std::printf("perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
