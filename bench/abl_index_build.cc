// Ablation A1: eager vs lazy punctuation index building (paper §3.5).
// Eager building pays a scan per punctuation but releases punctuations
// steadily; lazy building batches the scans (fewer tuples scanned per
// punctuation) at the cost of burstier propagation.

#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "join/pjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

namespace {

struct IndexRun {
  RunStats stats;
  /// Release latency in stream time: output punctuation minus the arrival
  /// of the latest input punctuation for the same key.
  std::vector<int64_t> latency_micros;
};

IndexRun Run(const GeneratedStreams& g, bool eager_index,
             bool eager_propagation = false) {
  JoinOptions opts;
  opts.runtime.purge_threshold = 1;
  opts.runtime.propagate_count_threshold = 8;
  opts.eager_index_build = eager_index;
  opts.eager_propagation = eager_propagation;
  PJoin join(g.schema_a, g.schema_b, opts);

  // Arrival time of the latest input punctuation per key (constant-pattern
  // punctuations only, which is all this workload produces).
  std::unordered_map<int64_t, TimeMicros> punct_arrival;
  for (const auto* stream : {&g.a, &g.b}) {
    for (const StreamElement& e : *stream) {
      if (!e.is_punctuation()) continue;
      const Pattern& p = e.punctuation().pattern(0);
      if (p.IsConstant()) {
        auto& at = punct_arrival[p.constant().AsInt64()];
        at = std::max(at, e.arrival());
      }
    }
  }

  IndexRun out;
  out.stats = RunExperiment(
      &join, g, 50, nullptr, [&](const Punctuation& p) {
        const Pattern& key_pattern = p.pattern(0);
        if (!key_pattern.IsConstant()) return;
        auto it = punct_arrival.find(key_pattern.constant().AsInt64());
        if (it != punct_arrival.end()) {
          out.latency_micros.push_back(
              std::max<int64_t>(0, join.last_arrival() - it->second));
        }
      });
  return out;
}

}  // namespace

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 20000;
  cfg.punct_a = 20;
  cfg.punct_b = 20;
  GeneratedStreams g = cfg.Generate();

  IndexRun eager = Run(g, true);
  IndexRun lazy = Run(g, false);
  IndexRun eager_prop = Run(g, true, /*eager_propagation=*/true);

  PrintHeader("Ablation A1", "eager vs lazy index building",
              "20k tuples/stream, punct inter-arrival 20, propagation every "
              "8 punctuations");
  PrintMetric("eager index scans",
              static_cast<double>(eager.stats.counters.Get("index_scans")));
  PrintMetric("lazy index scans",
              static_cast<double>(lazy.stats.counters.Get("index_scans")));
  PrintMetric(
      "eager tuples scanned",
      static_cast<double>(eager.stats.counters.Get("index_scanned_tuples")));
  PrintMetric(
      "lazy tuples scanned",
      static_cast<double>(lazy.stats.counters.Get("index_scanned_tuples")));
  PrintMetric("eager puncts propagated",
              static_cast<double>(eager.stats.puncts_out));
  PrintMetric("lazy puncts propagated",
              static_cast<double>(lazy.stats.puncts_out));
  std::printf("  release latency (stream us), eager index:       %s\n",
              SummarizeSamples(eager.latency_micros).c_str());
  std::printf("  release latency (stream us), lazy index:        %s\n",
              SummarizeSamples(lazy.latency_micros).c_str());
  std::printf("  release latency (stream us), eager propagation: %s\n",
              SummarizeSamples(eager_prop.latency_micros).c_str());
  PrintShapeCheck("same propagation outcome",
                  eager.stats.puncts_out == lazy.stats.puncts_out &&
                      eager.stats.puncts_out == eager_prop.stats.puncts_out);
  PrintShapeCheck("lazy batches the index scans (fewer scan passes)",
                  lazy.stats.counters.Get("index_scans") <
                      eager.stats.counters.Get("index_scans"));
  PrintShapeCheck(
      "eager propagation halves the median release latency",
      Median(eager_prop.latency_micros) * 2 <=
          Median(eager.latency_micros));
  PrintShapeCheck("identical result sets",
                  eager.stats.results == lazy.stats.results &&
                      eager.stats.results == eager_prop.stats.results);
  return 0;
}
