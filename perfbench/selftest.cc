// Self-test of the benchmark's own measuring code: the span self-time
// summarizer and the percentile refusal rule. Built next to the benchmark;
// run with `ctest --test-dir .bench_build/perfbench` or directly.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

int64_t SelfOf(const std::vector<Span>& spans, const std::vector<int64_t>& self,
               std::string_view name) {
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) return self[i];
  }
  return -1;
}

// A synthetic request: root [0,100) on thread 0 with
//   a [10,40) and its child a1 [20,30) (nested),
//   b [40,60) (sibling of a, touching it),
//   c [70,90) recorded on thread 1 with the root as explicit parent
//     (cross-thread), and its child c1 [75,80) on thread 1,
//   d [95,120) on thread 1, parented to the root but overrunning it.
void SelfTimesOfSyntheticTree() {
  SpanRecorder rec(true);
  const SpanId root = rec.Add("root", 0, 100, kNoSpan, 1, 0);
  const SpanId a = rec.Add("a", 10, 40, root, 1, 0);
  rec.Add("a1", 20, 30, a, 1, 0);
  rec.Add("b", 40, 60, root, 1, 0);
  const SpanId c = rec.Add("c", 70, 90, root, 1, 1);
  rec.Add("c1", 75, 80, c, 1, 1);
  rec.Add("d", 95, 120, root, 1, 1);
  std::vector<Span> spans;
  std::vector<SpanId> ids;
  rec.Collect(&spans, &ids);
  const std::vector<int64_t> self = SpanRecorder::ComputeSelfTimes(spans, ids);
  Expect(SelfOf(spans, self, "root") == 100 - 30 - 20 - 20 - 5,
         "root self = duration minus a, b, c and the clipped part of d");
  Expect(SelfOf(spans, self, "a") == 20, "a self excludes nested a1");
  Expect(SelfOf(spans, self, "a1") == 10, "leaf self = duration");
  Expect(SelfOf(spans, self, "b") == 20, "sibling b is its own leaf");
  Expect(SelfOf(spans, self, "c") == 15, "cross-thread c excludes c1");
  Expect(SelfOf(spans, self, "d") == 25, "d keeps its full duration");
  // Within the root's interval the self times partition it.
  int64_t inside = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "d") inside += self[i];
  }
  Expect(inside + 5 == 100, "self times inside the root sum to the root");

  const auto summary = rec.Summarize();
  Expect(summary.at("root").count == 1 && summary.at("root").self_ns == 25,
         "Summarize aggregates self time by name");
}

void OverlappingChildrenCountOnce() {
  SpanRecorder rec(true);
  const SpanId p = rec.Add("p", 0, 50, kNoSpan, 7, 0);
  rec.Add("x", 10, 30, p, 7, 0);
  rec.Add("y", 20, 40, p, 7, 1);  // overlaps x from another thread
  std::vector<Span> spans;
  std::vector<SpanId> ids;
  rec.Collect(&spans, &ids);
  const auto self = SpanRecorder::ComputeSelfTimes(spans, ids);
  Expect(SelfOf(spans, self, "p") == 20, "overlapping children count once");
}

void LiveRecordingNestsByThread() {
  SpanRecorder rec(true);
  {
    SpanScope outer(rec, "outer", 3);
    SpanScope inner(rec, "inner", 0);  // request 0: inherits the parent's
  }
  std::vector<Span> spans;
  std::vector<SpanId> ids;
  rec.Collect(&spans, &ids);
  Expect(spans.size() == 2 && spans[1].parent == ids[0],
         "a span opened inside another becomes its child");
  Expect(spans[1].request == 3, "request 0 inherits the parent's request");
  SpanRecorder off(false);
  Expect(off.Begin("x", 1) == kNoSpan, "a disabled recorder records nothing");
}

void PercentileNeedsTenBeyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  Expect(!Percentile(v, 0.99).has_value(),
         "999 samples leave 9 beyond p99: refused");
  Expect(!Summarize(v, 0.99).ok, "Summarize refuses it too");
  v.push_back(1000);
  auto p99 = Percentile(v, 0.99);
  Expect(p99.has_value() && *p99 == 990, "1000 samples: p99 is the 990th");
  const Summary s = Summarize(v, 0.99);
  Expect(s.ok && s.median == 500 && s.pct == 990 && s.n == 1000,
         "median, percentile and count are reported together");
  std::vector<double> twenty(20, 1.0), nineteen(19, 1.0);
  Expect(Percentile(twenty, 0.5).has_value() &&
             !Percentile(nineteen, 0.5).has_value(),
         "the median needs 20 samples");
  Expect(!Percentile({}, 0.5).has_value(), "no samples: refused");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::SelfTimesOfSyntheticTree();
  perfbench::OverlappingChildrenCountOnce();
  perfbench::LiveRecordingNestsByThread();
  perfbench::PercentileNeedsTenBeyond();
  if (perfbench::failures == 0) std::printf("perfbench self-test: all passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
