// Figure 12: asymmetric rates (A punct=10, B punct=20), PJoin-1 vs XJoin vs
// lazy PJoin. Paper: "the output rate of PJoin with the eager purge
// (PJoin-1) lags behind that of XJoin … the lazy purge together with an
// appropriate setting of the purge threshold … will make the output rate of
// PJoin better or at least equivalent to that of XJoin."

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

  // Paper cost model: both operators probe by linear bucket scan.
  JoinOptions xopts;
  xopts.indexed_probe = false;
  XJoin xjoin(g.schema_a, g.schema_b, xopts);
  RunStats xs = RunExperiment(&xjoin, g);

  auto run_pjoin = [&](int64_t threshold) {
    JoinOptions opts;
    opts.runtime.purge_threshold = threshold;
    opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
    opts.indexed_probe = false;
    PJoin join(g.schema_a, g.schema_b, opts);
    return RunExperiment(&join, g);
  };
  RunStats eager = run_pjoin(1);
  RunStats lazy = run_pjoin(200);

  const TimeMicros horizon = std::max(
      {xs.wall_micros, eager.wall_micros, lazy.wall_micros});
  PrintHeader("Figure 12", "asymmetric rates: PJoin vs XJoin output",
              "30k tuples/stream, A punct=10, B punct=20; PJoin-1 vs XJoin "
              "vs PJoin-200; x-axis = processing wall time");
  PrintTable("wall_s", horizon, 20,
             {{"pjoin1", &eager.output_vs_wall},
              {"xjoin", &xs.output_vs_wall},
              {"pjoin200", &lazy.output_vs_wall}});
  PrintMetric("pjoin-1 wall time", eager.wall_micros / 1e6, "s");
  PrintMetric("xjoin wall time", xs.wall_micros / 1e6, "s");
  PrintMetric("pjoin-200 wall time", lazy.wall_micros / 1e6, "s");
  // The paper's claim is about the output *rate*: compare the cumulative
  // output curves point by point over the common horizon.
  const int kBuckets = 20;
  auto xg = xs.output_vs_wall.Resample(horizon, kBuckets);
  auto eg = eager.output_vs_wall.Resample(horizon, kBuckets);
  auto lg = lazy.output_vs_wall.Resample(horizon, kBuckets);
  int eager_behind = 0;
  int lazy_ahead = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const auto i = static_cast<size_t>(b);
    if (eg[i].value <= xg[i].value) ++eager_behind;
    if (lg[i].value >= xg[i].value) ++lazy_ahead;
  }
  PrintMetric("buckets where PJoin-1 trails XJoin",
              static_cast<double>(eager_behind), "/20");
  PrintMetric("buckets where PJoin-200 >= XJoin",
              static_cast<double>(lazy_ahead), "/20");
  PrintShapeCheck("eager PJoin-1's output lags behind XJoin (purge cost)",
                  eager_behind >= 16);
  PrintShapeCheck(
      "lazy PJoin's output curve at least matches XJoin's",
      lazy_ahead >= 16);
  PrintShapeCheck("identical result sets",
                  xs.results == eager.results && xs.results == lazy.results);
  return 0;
}
