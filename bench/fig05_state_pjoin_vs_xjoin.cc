// Figure 5: total tuples in the join state over time, PJoin (eager purge)
// vs XJoin. Punctuation inter-arrival: 40 tuples/punctuation on both
// streams. Paper: "the memory requirement for the PJoin state is almost
// insignificant compared to that of XJoin."

#include "bench_util.h"
#include "join/pjoin.h"
#include "join/xjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 20000;
  cfg.punct_a = 40;
  cfg.punct_b = 40;
  GeneratedStreams g = cfg.Generate();

  JoinOptions xopts;
  EnableStateSampling(&xopts);
  XJoin xjoin(g.schema_a, g.schema_b, xopts);
  RunStats xs = RunExperiment(&xjoin, g);

  JoinOptions popts;
  EnableStateSampling(&popts);
  popts.runtime.purge_threshold = 1;  // eager purge (PJoin-1)
  popts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
  PJoin pjoin(g.schema_a, g.schema_b, popts);
  RunStats ps = RunExperiment(&pjoin, g);

  PrintHeader("Figure 5", "PJoin vs XJoin: memory overhead",
              "20k tuples/stream, punct inter-arrival 40 tuples/punct, "
              "eager purge");
  PrintTable("stream_s", xs.stream_micros, 20,
             {{"xjoin_state", &xs.state_vs_stream},
              {"pjoin1_state", &ps.state_vs_stream}});
  PrintMetric("xjoin max state", static_cast<double>(xs.max_state), "tuples");
  PrintMetric("pjoin-1 max state", static_cast<double>(ps.max_state),
              "tuples");
  PrintMetric("state ratio (xjoin/pjoin, mean)",
              xs.mean_state / std::max(1.0, ps.mean_state), "x");
  PrintShapeCheck(
      "PJoin state insignificant vs XJoin (mean ratio >= 10x)",
      xs.mean_state > 10.0 * ps.mean_state);
  PrintShapeCheck("identical result sets", xs.results == ps.results);
  return 0;
}
