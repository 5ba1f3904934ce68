// Figure 6: PJoin (eager purge) state size over time for punctuation
// inter-arrivals of 10, 20 and 30 tuples/punctuation. Paper: "as the
// punctuation inter-arrival increases, the average size of the PJoin state
// becomes larger correspondingly."

#include "bench_util.h"
#include "join/pjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  const double rates[] = {10, 20, 30};
  std::vector<RunStats> runs;
  TimeMicros horizon = 0;
  for (double rate : rates) {
    ExperimentConfig cfg;
    cfg.num_tuples = 20000;
    cfg.punct_a = rate;
    cfg.punct_b = rate;
    GeneratedStreams g = cfg.Generate();
    JoinOptions opts;
    EnableStateSampling(&opts);
    opts.runtime.purge_threshold = 1;
    opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
    PJoin join(g.schema_a, g.schema_b, opts);
    runs.push_back(RunExperiment(&join, g));
    horizon = std::max(horizon, runs.back().stream_micros);
  }

  PrintHeader("Figure 6", "PJoin state size vs punctuation inter-arrival",
              "20k tuples/stream, eager purge, punct inter-arrival 10/20/30");
  PrintTable("stream_s", horizon, 20,
             {{"punct10", &runs[0].state_vs_stream},
              {"punct20", &runs[1].state_vs_stream},
              {"punct30", &runs[2].state_vs_stream}});
  for (size_t i = 0; i < runs.size(); ++i) {
    PrintMetric("mean state @ inter-arrival " + std::to_string((i + 1) * 10),
                runs[i].mean_state, "tuples");
  }
  PrintShapeCheck(
      "state grows with punctuation inter-arrival (10 < 20 < 30)",
      runs[0].mean_state < runs[1].mean_state &&
          runs[1].mean_state < runs[2].mean_state);
  return 0;
}
