// The benchmark's workloads and the code that runs one repetition of each,
// untraced (plain PJoin, the end-to-end figures) or traced (timing
// subclasses around every layer call, the per-layer figures). README.md
// in this directory records why each workload exists and what it predicts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/stream_generator.h"
#include "join/join_base.h"
#include "oracle.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// One line: what the workload loads, so a result names its purpose.
  std::string why;
  pjoin::DomainSpec domain;
  pjoin::StreamSpec stream_a;
  pjoin::StreamSpec stream_b;
  pjoin::JoinOptions join;
  /// Shards of the ParallelJoinPipeline.
  int shards = 3;
  /// Feed the merged output to the Fig 1 group-by on the merger thread.
  bool groupby = false;
  /// Total in-memory state cap across shards (split evenly); 0 = none.
  int64_t memory_cap_tuples = 0;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null when there is no workload of that name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The generated input of a run and its oracle answer.
struct Inputs {
  pjoin::GeneratedStreams streams;
  Expected expected;
  int64_t tuples = 0;
  /// Wall time to generate the streams (not part of any timed window).
  double gen_s = 0.0;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// What one repetition measured. The pipeline takes the whole input at
/// once, so every element is due when Run starts; latencies are in
/// microseconds from then.
struct RepResult {
  /// Empty when the run's status was OK and every oracle check passed.
  std::string error;
  double setup_s = 0.0;
  /// Wall time of Run (and the group-by's end of stream, if it runs).
  /// Traced and untraced repetitions are compared on this for
  /// trace.overhead_share.
  double wall_s = 0.0;
  /// Input tuples / wall_s.
  double tuples_per_s = 0.0;
  double peak_rss_mb = 0.0;
  double group_latency_p50_us = 0.0;
  double group_latency_p99_us = 0.0;
  double result_latency_p99_us = 0.0;
  /// Samples behind the percentiles: groups, and (sampled) results.
  int64_t group_samples = 0;
  int64_t result_samples = 0;
  /// Per-layer figures (traced repetitions only), by metric name.
  std::map<std::string, double> layers;
};

/// Set-up builds timed on their own at the start of each repetition; the
/// first one is cold, the median is taken over all of them.
constexpr int kSetupBuilds = 21;

/// Runs one repetition; `run_id` tags the spans of a traced repetition.
/// Its setup_s is the median of kSetupBuilds builds.
RepResult RunRepetition(const WorkloadSpec& spec, const Inputs& inputs,
                        bool traced, uint32_t run_id);


}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
