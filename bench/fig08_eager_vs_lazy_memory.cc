// Figure 8: memory overhead of eager purge (PJoin-1) vs lazy purge
// (PJoin-10). Punctuation inter-arrival: 10 tuples/punctuation. Paper:
// "eager purge is the best strategy for minimizing the join state, whereas
// the lazy purge requires more memory."

#include "bench_util.h"
#include "join/pjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 20000;
  cfg.punct_a = 10;
  cfg.punct_b = 10;
  GeneratedStreams g = cfg.Generate();

  auto run = [&](int64_t threshold) {
    JoinOptions opts;
    EnableStateSampling(&opts);
    opts.runtime.purge_threshold = threshold;
    opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
    PJoin join(g.schema_a, g.schema_b, opts);
    return RunExperiment(&join, g);
  };
  RunStats eager = run(1);
  RunStats lazy = run(10);

  PrintHeader("Figure 8", "eager vs lazy purge: memory overhead",
              "20k tuples/stream, punct inter-arrival 10; PJoin-1 vs "
              "PJoin-10");
  PrintTable("stream_s", eager.stream_micros, 20,
             {{"pjoin1_state", &eager.state_vs_stream},
              {"pjoin10_state", &lazy.state_vs_stream}});
  PrintMetric("pjoin-1 mean state", eager.mean_state, "tuples");
  PrintMetric("pjoin-10 mean state", lazy.mean_state, "tuples");
  PrintMetric("pjoin-1 purge runs",
              static_cast<double>(eager.counters.Get("purge_runs")));
  PrintMetric("pjoin-10 purge runs",
              static_cast<double>(lazy.counters.Get("purge_runs")));
  PrintShapeCheck("eager purge minimizes state (mean-1 < mean-10)",
                  eager.mean_state < lazy.mean_state);
  PrintShapeCheck("identical result sets", eager.results == lazy.results);
  return 0;
}
