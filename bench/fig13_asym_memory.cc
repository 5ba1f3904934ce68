// Figure 13: state requirements for the Figure 12 configuration (A
// punct=10, B punct=20). Paper: eager purge minimizes memory; lazy purge
// trades "an insignificant increase in memory overhead" for output rate;
// XJoin retains everything.

#include "bench_util.h"
#include "join/pjoin.h"
#include "join/xjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 30000;
  cfg.punct_a = 10;
  cfg.punct_b = 20;
  GeneratedStreams g = cfg.Generate();

  JoinOptions xopts;
  EnableStateSampling(&xopts);
  XJoin xjoin(g.schema_a, g.schema_b, xopts);
  RunStats xs = RunExperiment(&xjoin, g);

  auto run_pjoin = [&](int64_t threshold) {
    JoinOptions opts;
    EnableStateSampling(&opts);
    opts.runtime.purge_threshold = threshold;
    opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
    PJoin join(g.schema_a, g.schema_b, opts);
    return RunExperiment(&join, g);
  };
  RunStats eager = run_pjoin(1);
  RunStats lazy = run_pjoin(100);

  PrintHeader("Figure 13", "asymmetric rates: state requirements",
              "30k tuples/stream, A punct=10, B punct=20; PJoin-1 vs "
              "PJoin-100 vs XJoin");
  PrintTable("stream_s", xs.stream_micros, 20,
             {{"pjoin1", &eager.state_vs_stream},
              {"pjoin100", &lazy.state_vs_stream},
              {"xjoin", &xs.state_vs_stream}});
  PrintMetric("pjoin-1 mean state", eager.mean_state, "tuples");
  PrintMetric("pjoin-100 mean state", lazy.mean_state, "tuples");
  PrintMetric("xjoin mean state", xs.mean_state, "tuples");
  PrintShapeCheck("eager <= lazy state", eager.mean_state <= lazy.mean_state);
  PrintShapeCheck(
      "lazy purge memory increase insignificant vs XJoin's growth",
      lazy.mean_state < xs.mean_state / 2);
  return 0;
}
