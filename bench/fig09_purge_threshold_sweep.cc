// Figure 9: output progress for purge thresholds 1 / 100 / 400 / 800 at
// punctuation inter-arrival 10. Paper: "up to some limit, the higher the
// purge threshold, the higher the output rate … when the increased cost of
// probing the state exceeds the cost of purge, we start to lose on
// performance" — i.e. a middle threshold (100) beats both eager (1) and
// very lazy (400/800).

#include "bench_util.h"
#include "join/pjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 30000;
  cfg.punct_a = 10;
  cfg.punct_b = 10;
  GeneratedStreams g = cfg.Generate();

  const int64_t thresholds[] = {1, 100, 400, 800};
  std::vector<RunStats> runs;
  TimeMicros horizon = 0;
  for (int64_t t : thresholds) {
    JoinOptions opts;
    EnableStateSampling(&opts);
    opts.runtime.purge_threshold = t;
    opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
    // The figure's probe-vs-purge tradeoff is the paper's scan cost model;
    // indexed probing would flatten the lazy-threshold probe penalty.
    opts.indexed_probe = false;
    PJoin join(g.schema_a, g.schema_b, opts);
    runs.push_back(RunExperiment(&join, g));
    horizon = std::max(horizon, runs.back().wall_micros);
  }

  PrintHeader("Figure 9", "purge threshold sweep: output progress",
              "30k tuples/stream, punct inter-arrival 10; PJoin-1/100/400/"
              "800; x-axis = processing wall time");
  PrintTable("wall_s", horizon, 20,
             {{"pjoin1", &runs[0].output_vs_wall},
              {"pjoin100", &runs[1].output_vs_wall},
              {"pjoin400", &runs[2].output_vs_wall},
              {"pjoin800", &runs[3].output_vs_wall}});
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintMetric("wall time @ threshold " + std::to_string(thresholds[i]),
                runs[i].wall_micros / 1e6, "s");
    PrintMetric("  purge scan cost",
                static_cast<double>(runs[i].counters.Get("purge_scanned")),
                "tuples scanned");
    PrintMetric("  probe cost",
                static_cast<double>(
                    runs[i].counters.Get("probe_comparisons")),
                "comparisons");
  }
  PrintShapeCheck("PJoin-100 faster than eager PJoin-1",
                  runs[1].wall_micros < runs[0].wall_micros);
  PrintShapeCheck("PJoin-100 faster than PJoin-800",
                  runs[1].wall_micros < runs[3].wall_micros);
  PrintShapeCheck("identical result sets across thresholds",
                  runs[0].results == runs[1].results &&
                      runs[1].results == runs[2].results &&
                      runs[2].results == runs[3].results);
  return 0;
}
