// Ablation A11: adaptive purge-threshold tuning. Figure 9 shows the purge
// threshold has a sweet spot that depends on the workload; the paper leaves
// "finding an appropriate purge threshold" as an open task. The
// PurgeThresholdTuner closes the loop using the runtime-tunable monitor
// parameters (§3.6): it should land near the best static setting without
// being told the workload.

#include "bench_util.h"
#include "join/purge_tuner.h"
#include "ops/pipeline.h"

using namespace pjoin;
using namespace pjoin::bench;

namespace {

struct TuneRun {
  int64_t total_cost = 0;  // purge scans + probe comparisons
  TimeMicros wall = 0;
  int64_t final_threshold = 0;
};

TuneRun Run(const GeneratedStreams& g, int64_t static_threshold,
            bool adaptive) {
  JoinOptions opts;
  opts.runtime.purge_threshold = static_threshold;
  opts.purge_mode = PurgeMode::kScan;  // the paper's scan purge cost
  PJoin join(g.schema_a, g.schema_b, opts);
  PurgeThresholdTuner::Options topts;
  topts.interval = 500;
  PurgeThresholdTuner tuner(&join, topts);

  Stopwatch watch;
  PipelineOptions popts;
  if (adaptive) {
    popts.progress = [&tuner](int64_t) { tuner.Observe(); };
  }
  JoinPipeline pipe(&join, nullptr, popts);
  Status st = pipe.Run(g.a, g.b);
  PJOIN_DCHECK(st.ok());

  TuneRun out;
  out.wall = watch.ElapsedMicros();
  out.total_cost = join.counters().Get("purge_scanned") +
                   join.counters().Get("probe_comparisons");
  out.final_threshold = tuner.current_threshold();
  return out;
}

}  // namespace

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 30000;
  cfg.punct_a = 10;
  cfg.punct_b = 10;
  GeneratedStreams g = cfg.Generate();

  PrintHeader("Ablation A11", "adaptive purge-threshold tuning",
              "30k tuples/stream, punct inter-arrival 10; tuner starts "
              "eager (threshold 1)");
  std::printf("%-22s %16s %14s %14s\n", "configuration", "total_cost",
              "wall_ms", "final_thresh");
  TuneRun best{INT64_MAX, 0, 0};
  for (int64_t t : {1, 100, 800}) {
    TuneRun r = Run(g, t, /*adaptive=*/false);
    std::printf("%-22s %16lld %14.1f %14lld\n",
                ("static-" + std::to_string(t)).c_str(),
                static_cast<long long>(r.total_cost), r.wall / 1e3,
                static_cast<long long>(t));
    if (r.total_cost < best.total_cost) best = r;
  }
  TuneRun tuned = Run(g, 1, /*adaptive=*/true);
  std::printf("%-22s %16lld %14.1f %14lld\n", "adaptive (from 1)",
              static_cast<long long>(tuned.total_cost), tuned.wall / 1e3,
              static_cast<long long>(tuned.final_threshold));

  TuneRun eager = Run(g, 1, /*adaptive=*/false);
  PrintShapeCheck("tuner escapes the eager setting",
                  tuned.final_threshold > 1);
  PrintShapeCheck("tuned cost beats eager",
                  tuned.total_cost < eager.total_cost);
  PrintShapeCheck("tuned cost within 3x of the best static setting",
                  tuned.total_cost < best.total_cost * 3);
  return 0;
}
