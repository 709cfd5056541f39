// Checks of the benchmark's own measurement helpers (harness.h): the
// percentile rule of ten samples beyond, union lengths, span self time
// and child coverage. Exits 1 on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;  // NOLINT

int checks = 0;

void Expect(bool ok, const char* what, int line) {
  ++checks;
  if (ok) return;
  std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
  std::exit(1);
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Samples Range(int n) {
  Samples samples;
  // Inserted out of order: the helpers must not rely on sorted input.
  for (int i = n; i >= 1; --i) samples.Add(i);
  return samples;
}

void TestPercentileRule() {
  // 1000 samples: p99 is the 990th value and exactly 10 lie beyond it.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(Range(1000).Tail(0.99).has_value());
  EXPECT(Near(*Range(1000).Tail(0.99), 990));
  // 999 samples leave only 9 beyond p99: no p99 may be reported.
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(!Range(999).Tail(0.99).has_value());
  // A p90 needs only 100 samples.
  EXPECT(Range(100).Tail(0.90).has_value());
  EXPECT(Near(*Range(100).Tail(0.90), 90));
  EXPECT(!Range(99).Tail(0.90).has_value());
  EXPECT(!Samples().Tail(0.5).has_value());
}

void TestMedian() {
  EXPECT(Near(Range(5).Median(), 3));
  EXPECT(Near(Range(4).Median(), 2.5));
  EXPECT(Near(Samples().Median(), 0));
  EXPECT(Near(Median({3, 1, 2}), 2));
}

void TestStopwatch() {
  const Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1e-9 * i;
  EXPECT(watch.cpu_s() > 0);
  EXPECT(watch.wall_s() > 0);
}

void TestUnionLength() {
  EXPECT(Near(UnionLength({}), 0));
  EXPECT(Near(UnionLength({{0, 1}, {2, 3}}), 2));
  EXPECT(Near(UnionLength({{0, 2}, {1, 3}}), 3));        // overlap
  EXPECT(Near(UnionLength({{0, 4}, {1, 2}}), 4));        // nested
  EXPECT(Near(UnionLength({{2, 3}, {0, 1}, {1, 2}}), 3));  // touching
  EXPECT(Near(UnionLength({{1, 1}, {3, 2}}), 0));        // empty/inverted
}

std::vector<Span> Tree() {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping), a
  // grandchild [1, 2] under the first child, and a child [9, 12] that
  // runs past the root's end.
  return {
      {"root", -1, 0, 10}, {"a", 0, 1, 4}, {"b", 0, 3, 6},
      {"a.1", 1, 1, 2},    {"c", 0, 9, 12},
  };
}

void TestSelfTimeAndCoverage() {
  const std::vector<Span> spans = Tree();
  // Children cover [1, 6] and [9, 10]: 6 of the root's 10 seconds.
  EXPECT(Near(ChildCoverage(spans, 0), 6));
  EXPECT(Near(SelfTime(spans, 0), 4));
  EXPECT(Near(CoverageFraction(spans, 0), 0.6));
  // Only direct children count: the grandchild is the child's.
  EXPECT(Near(SelfTime(spans, 1), 2));
  EXPECT(Near(SelfTime(spans, 3), 1));
  EXPECT(Near(CoverageFraction(spans, 3), 0));
  const std::vector<Span> empty = {{"instant", -1, 5, 5}};
  EXPECT(Near(CoverageFraction(empty, 0), 1));
}

void TestSpanLog() {
  SpanLog log;
  int root = -1;
  {
    ScopedSpan outer(&log, "outer");
    root = outer.index();
    ScopedSpan inner(&log, "inner", root);
  }
  { ScopedSpan unlogged(nullptr, "ignored"); }
  const std::vector<Span> spans = log.spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans[1].parent == root);
  EXPECT(spans[0].end_s >= spans[1].end_s);
  EXPECT(log.Durations("inner").size() == 1);
  EXPECT(log.Durations("missing").empty());
}

void TestCatalogue() {
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& m : *list) {
      EXPECT(names.insert(m.name).second);  // each name used once
    }
  }
  EXPECT(std::string(EndToEndMetrics().front().name) == "setup_s");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestMedian();
  TestStopwatch();
  TestUnionLength();
  TestSelfTimeAndCoverage();
  TestSpanLog();
  TestCatalogue();
  std::printf("perfbench selftest: %d checks passed\n", checks);
  return 0;
}
