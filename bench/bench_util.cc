#include "bench_util.h"

#include <algorithm>
#include <cstdio>

#include "ops/pipeline.h"

namespace pjoin {
namespace bench {

GeneratedStreams ExperimentConfig::Generate() const {
  DomainSpec d;
  d.window_size = window;
  StreamSpec a;
  a.num_tuples = num_tuples;
  a.tuple_mean_interarrival_micros = 2000.0;  // paper: 2 ms
  a.punct_mean_interarrival_tuples = punct_a;
  StreamSpec b = a;
  b.punct_mean_interarrival_tuples = punct_b;
  return GenerateStreams(d, a, b, seed);
}

void EnableStateSampling(JoinOptions* options) {
  options->state_sample_interval = 1;
}

RunStats RunExperiment(
    JoinOperator* join, const GeneratedStreams& streams,
    int64_t sample_every,
    const std::function<void(const JoinOperator&)>& on_sample,
    const std::function<void(const Punctuation&)>& on_punct) {
  RunStats stats;
  int64_t results = 0;
  int64_t puncts = 0;
  join->set_result_callback([&results](const Tuple&) { ++results; });
  join->set_punct_callback([&puncts, &on_punct](const Punctuation& p) {
    ++puncts;
    if (on_punct) on_punct(p);
  });

  Stopwatch watch;
  PipelineOptions popts;
  popts.stall_gap_micros = 8000;  // network lull: 4x the mean inter-arrival
  popts.progress = [&](int64_t n) {
    if (n % sample_every != 0) return;
    stats.output_vs_wall.Record(watch.ElapsedMicros(), results);
    stats.puncts_vs_stream.Record(join->last_arrival(), puncts);
    if (on_sample) on_sample(*join);
  };
  JoinPipeline pipeline(join, nullptr, popts);
  Status st = pipeline.Run(streams.a, streams.b);
  PJOIN_DCHECK(st.ok());

  stats.wall_micros = watch.ElapsedMicros();
  stats.stream_micros = join->last_arrival();
  stats.output_vs_wall.Record(stats.wall_micros, results);
  stats.puncts_vs_stream.Record(stats.stream_micros, puncts);
  stats.results = results;
  stats.puncts_out = puncts;
  stats.state_vs_stream = join->state_series();
  // The stream is over: surface the thinned tail sample so the series ends
  // at the operator's true final state (post-purge size, not whichever
  // sample last cleared the thinning interval).
  stats.state_vs_stream.Flush();
  stats.counters = join->counters();
  stats.max_state = stats.state_vs_stream.MaxValue();
  stats.mean_state = stats.state_vs_stream.MeanValue();
  return stats;
}

void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& setup) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("setup: %s\n", setup.c_str());
  std::printf("==============================================================\n");
}

void PrintTable(const std::string& axis_name, TimeMicros horizon, int buckets,
                const std::vector<Series>& series) {
  std::printf("%-12s", axis_name.c_str());
  for (const Series& s : series) std::printf(" %16s", s.name.c_str());
  std::printf("\n");
  std::vector<std::vector<Sample>> grids;
  grids.reserve(series.size());
  for (const Series& s : series) {
    grids.push_back(s.data->Resample(horizon, buckets));
  }
  for (int b = 0; b < buckets; ++b) {
    const double axis =
        static_cast<double>(grids[0][static_cast<size_t>(b)].time) / 1e6;
    std::printf("%-12.2f", axis);
    for (const auto& grid : grids) {
      std::printf(" %16lld",
                  static_cast<long long>(grid[static_cast<size_t>(b)].value));
    }
    std::printf("\n");
  }
}

void PrintMetric(const std::string& name, double value,
                 const std::string& unit) {
  std::printf("  %-42s %14.2f %s\n", name.c_str(), value, unit.c_str());
}

void PrintShapeCheck(const std::string& expectation, bool holds) {
  std::printf("SHAPE %s: %s\n", holds ? "OK  " : "FAIL", expectation.c_str());
}

int64_t Median(std::vector<int64_t> samples) {
  if (samples.empty()) return 0;
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

std::string SummarizeSamples(const std::vector<int64_t>& samples) {
  const int64_t max =
      samples.empty() ? 0 : *std::max_element(samples.begin(), samples.end());
  char buf[96];
  std::snprintf(buf, sizeof(buf), "count=%zu median=%lld max=%lld",
                samples.size(), static_cast<long long>(Median(samples)),
                static_cast<long long>(max));
  return std::string(buf);
}

}  // namespace bench
}  // namespace pjoin
