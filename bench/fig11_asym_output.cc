// Figure 11: output progress for the asymmetric configurations of Fig 10.
// Paper: "the slower the punctuation arrival rate, the greater is the tuple
// output rate … slow punctuation arrival means a smaller number of purges
// and hence less overhead caused by purge."

#include "bench_util.h"
#include "join/pjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  const double b_rates[] = {10, 20, 40};
  std::vector<RunStats> runs;
  std::vector<int64_t> purge_runs;
  TimeMicros horizon = 0;
  for (double rate : b_rates) {
    ExperimentConfig cfg;
    cfg.num_tuples = 20000;
    cfg.punct_a = 10;
    cfg.punct_b = rate;
    GeneratedStreams g = cfg.Generate();
    JoinOptions opts;
    opts.runtime.purge_threshold = 1;
    opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
    PJoin join(g.schema_a, g.schema_b, opts);
    runs.push_back(RunExperiment(&join, g));
    purge_runs.push_back(runs.back().counters.Get("purge_runs"));
    horizon = std::max(horizon, runs.back().wall_micros);
  }

  PrintHeader("Figure 11", "asymmetric punctuation rates: output progress",
              "20k tuples/stream, eager purge, A punct=10, B punct=10/20/40; "
              "x-axis = processing wall time");
  PrintTable("wall_s", horizon, 20,
             {{"out_B10", &runs[0].output_vs_wall},
              {"out_B20", &runs[1].output_vs_wall},
              {"out_B40", &runs[2].output_vs_wall}});
  for (size_t i = 0; i < 3; ++i) {
    PrintMetric("purge runs @ B=" + std::to_string((int)b_rates[i]),
                static_cast<double>(purge_runs[i]));
    PrintMetric("wall time @ B=" + std::to_string((int)b_rates[i]),
                runs[i].wall_micros / 1e6, "s");
  }
  PrintShapeCheck("fewer punctuations => fewer purges (B40 < B10)",
                  purge_runs[2] < purge_runs[0]);
  return 0;
}
