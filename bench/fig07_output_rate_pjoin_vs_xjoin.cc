// Figure 7: cumulative output tuples against processing time, PJoin vs
// XJoin. Paper: "as time advances, PJoin maintains an almost steady output
// rate whereas the output rate of XJoin drops" (XJoin's growing state makes
// every probe more expensive).

#include "bench_util.h"
#include "join/pjoin.h"
#include "join/xjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

namespace {

// Rate in the first vs second half of a cumulative-output curve.
std::pair<double, double> HalfRates(const TimeSeries& curve,
                                    TimeMicros horizon) {
  auto grid = curve.Resample(horizon, 2);
  const double first = static_cast<double>(grid[0].value);
  const double second = static_cast<double>(grid[1].value - grid[0].value);
  return {first, second};
}

}  // namespace

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 30000;
  cfg.punct_a = 40;
  cfg.punct_b = 40;
  GeneratedStreams g = cfg.Generate();

  // The figure contrasts the paper's operators, both with the linear bucket
  // scan; indexed probing would mask XJoin's probe-cost decay.
  JoinOptions xopts;
  xopts.indexed_probe = false;
  XJoin xjoin(g.schema_a, g.schema_b, xopts);
  RunStats xs = RunExperiment(&xjoin, g);
  JoinOptions popts;
  popts.runtime.purge_threshold = 1;
  popts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
  popts.indexed_probe = false;
  PJoin pjoin(g.schema_a, g.schema_b, popts);
  RunStats ps = RunExperiment(&pjoin, g);

  const TimeMicros horizon = std::max(xs.wall_micros, ps.wall_micros);
  PrintHeader("Figure 7", "PJoin vs XJoin: tuple output rate",
              "30k tuples/stream, punct inter-arrival 40, eager purge; "
              "x-axis = processing wall time");
  PrintTable("wall_s", horizon, 20,
             {{"xjoin_out", &xs.output_vs_wall},
              {"pjoin_out", &ps.output_vs_wall}});
  auto [xj_first, xj_second] = HalfRates(xs.output_vs_wall, xs.wall_micros);
  auto [pj_first, pj_second] = HalfRates(ps.output_vs_wall, ps.wall_micros);
  PrintMetric("xjoin second-half/first-half output ratio",
              xj_second / std::max(1.0, xj_first));
  PrintMetric("pjoin second-half/first-half output ratio",
              pj_second / std::max(1.0, pj_first));
  PrintMetric("xjoin total wall time", xs.wall_micros / 1e6, "s");
  PrintMetric("pjoin total wall time", ps.wall_micros / 1e6, "s");
  PrintShapeCheck("XJoin output rate decays more than PJoin's",
                  xj_second / std::max(1.0, xj_first) <
                      pj_second / std::max(1.0, pj_first));
  PrintShapeCheck("PJoin finishes the stream no slower than XJoin",
                  ps.wall_micros <= xs.wall_micros);
  PrintShapeCheck("identical result sets", xs.results == ps.results);
  return 0;
}
