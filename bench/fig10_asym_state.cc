// Figure 10: state requirement under asymmetric punctuation inter-arrival.
// Stream A is fixed at 10 tuples/punctuation; stream B varies over
// {10, 20, 40}. Paper: "the larger the difference in the punctuation
// inter-arrival of the two input streams, the larger will be the memory
// requirement" — and the B state stays insignificant, because fast A
// punctuations drop most B tuples on the fly.

#include "bench_util.h"
#include "join/pjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  const double b_rates[] = {10, 20, 40};
  std::vector<RunStats> runs;
  std::vector<TimeSeries> a_states(3);
  std::vector<TimeSeries> b_states(3);
  TimeMicros horizon = 0;
  for (size_t i = 0; i < 3; ++i) {
    ExperimentConfig cfg;
    cfg.num_tuples = 20000;
    cfg.punct_a = 10;
    cfg.punct_b = b_rates[i];
    GeneratedStreams g = cfg.Generate();
    JoinOptions opts;
    EnableStateSampling(&opts);
    opts.runtime.purge_threshold = 1;
    opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
    PJoin join(g.schema_a, g.schema_b, opts);
    TimeSeries* a_series = &a_states[i];
    TimeSeries* b_series = &b_states[i];
    runs.push_back(RunExperiment(
        &join, g, 250, [a_series, b_series](const JoinOperator& j) {
          a_series->Record(j.last_arrival(), j.state(0).total_tuples());
          b_series->Record(j.last_arrival(), j.state(1).total_tuples());
        }));
    horizon = std::max(horizon, runs.back().stream_micros);
  }

  PrintHeader("Figure 10", "asymmetric punctuation rates: state size",
              "20k tuples/stream, eager purge, A punct=10, B punct=10/20/40");
  PrintTable("stream_s", horizon, 20,
             {{"total_B10", &runs[0].state_vs_stream},
              {"total_B20", &runs[1].state_vs_stream},
              {"total_B40", &runs[2].state_vs_stream}});
  for (size_t i = 0; i < 3; ++i) {
    PrintMetric("A-state mean @ B=" + std::to_string((int)b_rates[i]),
                a_states[i].MeanValue(), "tuples");
    PrintMetric("B-state mean @ B=" + std::to_string((int)b_rates[i]),
                b_states[i].MeanValue(), "tuples");
  }
  PrintShapeCheck(
      "state grows with the rate difference (B10 < B20 < B40)",
      runs[0].mean_state < runs[1].mean_state &&
          runs[1].mean_state < runs[2].mean_state);
  PrintShapeCheck(
      "B state insignificant vs A state in the asymmetric case (B=40)",
      b_states[2].MeanValue() * 5 < a_states[2].MeanValue());
  return 0;
}
