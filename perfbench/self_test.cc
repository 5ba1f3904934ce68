// Self-tests of the benchmark's own arithmetic. Every run executes them
// first and refuses to report numbers when one fails; --self-test runs
// them alone and prints each check.

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "span_trace.h"
#include "stats.h"

namespace perfbench {

namespace {

class Checker {
 public:
  explicit Checker(bool verbose) : verbose_(verbose) {}
  void Expect(bool ok, const std::string& what) {
    if (!ok) ++failures_;
    if (verbose_ || !ok) {
      std::fprintf(verbose_ ? stdout : stderr, "%s %s\n", ok ? "ok  " : "FAIL",
                   what.c_str());
    }
  }
  bool passed() const { return failures_ == 0; }

 private:
  bool verbose_;
  int failures_ = 0;
};

void TestPercentileRule(Checker& c) {
  c.Expect(HighestSupportedPercentile(9) == 0.0,
           "9 samples support no percentile");
  c.Expect(HighestSupportedPercentile(20) == 50.0,
           "20 samples support the median only");
  c.Expect(HighestSupportedPercentile(100) == 90.0,
           "100 samples: p90 has exactly 10 beyond it");
  c.Expect(HighestSupportedPercentile(999) == 90.0,
           "999 samples: p99 has only 9 beyond it");
  c.Expect(HighestSupportedPercentile(1000) == 99.0,
           "1000 samples: p99 has exactly 10 beyond it");
  c.Expect(HighestSupportedPercentile(10000) == 99.9,
           "10000 samples support p99.9");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  c.Expect(Percentile(v, 99.0) == 990.0, "nearest-rank p99 of 1..1000 is 990");
  c.Expect(Percentile(v, 50.0) == 500.0, "nearest-rank p50 of 1..1000 is 500");
  c.Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
}

void TestOracle(Checker& c) {
  const std::vector<KeyedTuple> left = {{1, 10}, {1, 11}, {2, 5}, {4, 0}};
  const std::vector<KeyedTuple> right = {{1, 7}, {2, 5}, {3, 1}, {2, 5}};
  const Expected e = ComputeExpected(left, right);
  c.Expect(e.results == 4, "oracle joins 2x1 + 1x2 rows");
  c.Expect(e.group_counts.size() == 2 && e.group_counts.at(1) == 2 &&
               e.group_counts.at(2) == 2,
           "oracle group counts");
  const std::vector<std::vector<int64_t>> rows = {
      {1, 10, 1, 7}, {1, 11, 1, 7}, {2, 5, 2, 5}, {2, 5, 2, 5}};
  auto tally = [](const std::vector<std::vector<int64_t>>& rs) {
    ResultTally t;
    for (const auto& r : rs) t.Add(r[0], r[1], r[2], r[3]);
    return t;
  };
  c.Expect(CheckResults(e, tally(rows)).empty(), "oracle accepts the answer");
  std::vector<std::vector<int64_t>> dropped = rows;
  dropped.erase(dropped.begin());
  c.Expect(!CheckResults(e, tally(dropped)).empty(),
           "oracle catches one dropped row");
  std::vector<std::vector<int64_t>> duplicated = rows;
  duplicated.push_back(rows[0]);
  c.Expect(!CheckResults(e, tally(duplicated)).empty(),
           "oracle catches one duplicated row");
  std::vector<std::vector<int64_t>> swapped = dropped;
  swapped.push_back(rows[1]);  // right count, row 0 missing, row 1 twice
  c.Expect(!CheckResults(e, tally(swapped)).empty(),
           "oracle catches a drop hidden by a duplicate");

  GroupTally groups;
  groups.Add(1, 2);
  groups.Add(2, 2);
  c.Expect(CheckGroups(e, groups).empty(), "group check accepts the answer");
  GroupTally early;
  early.Add(1, 1);  // group emitted before its last row
  early.Add(1, 1);
  early.Add(2, 2);
  c.Expect(!CheckGroups(e, early).empty(),
           "group check catches a group emitted twice");
  GroupTally missing;
  missing.Add(1, 2);
  c.Expect(!CheckGroups(e, missing).empty(),
           "group check catches a missing group");
}

void TestSelfTime(Checker& c) {
  // parent [0,100] > child [10,40], child [50,60] > grandchild [52,55];
  // then a second root [200,210].
  ThreadTrace t(/*run_id=*/7, /*max_records=*/4);
  t.Begin(Layer::kJoinPunct, 0);
  t.Begin(Layer::kMerge, 10);
  t.End(40);
  t.Begin(Layer::kGroupBy, 50);
  t.Begin(Layer::kMerge, 52);
  t.End(55);
  t.End(60);
  t.End(100);
  t.Begin(Layer::kJoinPunct, 200);
  t.End(210);
  c.Expect(t.self_ns(Layer::kJoinPunct) == 60 + 10,
           "parent self time excludes both children");
  c.Expect(t.self_ns(Layer::kGroupBy) == 7,
           "child self time excludes the grandchild");
  c.Expect(t.self_ns(Layer::kMerge) == 30 + 3, "leaf self time is its span");
  c.Expect(t.attributed_ns() == 110, "self times add up to the root spans");
  c.Expect(t.calls(Layer::kMerge) == 2, "calls are counted per layer");
  c.Expect(t.records().size() == 4 && t.dropped_records() == 1,
           "records past the cap are dropped, totals kept");
  c.Expect(t.records()[1].parent == 0 && t.records()[3].parent == 2 &&
               t.records()[0].parent == -1 && t.records()[0].run_id == 7,
           "records keep parent links and the run id");
}

}  // namespace

bool RunSelfTests(bool verbose) {
  Checker c(verbose);
  TestPercentileRule(c);
  TestOracle(c);
  TestSelfTime(c);
  return c.passed();
}

}  // namespace perfbench
