#include <gtest/gtest.h>

#include "gen/stream_generator.h"
#include "join/purge_tuner.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ReferenceJoinRows;

// The tuner trades purge scans against probe comparisons, so the tests that
// judge its decisions pin the paper's scan purge: under the key-addressed
// default purge is too cheap for the threshold to matter.

GeneratedStreams DensePunctStreams(uint64_t seed, int64_t n = 6000) {
  DomainSpec d;
  d.window_size = 20;
  StreamSpec spec;
  spec.num_tuples = n;
  spec.punct_mean_interarrival_tuples = 5;  // very frequent punctuations
  return GenerateStreams(d, spec, spec, seed);
}

TEST(PurgeTunerTest, RaisesThresholdWhenPurgeDominates) {
  GeneratedStreams g = DensePunctStreams(11);
  JoinOptions opts;
  opts.purge_mode = PurgeMode::kScan;
  opts.runtime.purge_threshold = 1;  // start eager
  PJoin join(g.schema_a, g.schema_b, opts);
  PurgeThresholdTuner::Options topts;
  topts.interval = 500;
  PurgeThresholdTuner tuner(&join, topts);

  PipelineOptions popts;
  popts.progress = [&tuner](int64_t) { tuner.Observe(); };
  JoinPipeline pipe(&join, nullptr, popts);
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());
  // With punctuations every ~5 tuples, eager purge scans dominate; the
  // tuner must have backed off from 1.
  EXPECT_GT(tuner.current_threshold(), 1);
  EXPECT_GT(tuner.adjustments_up(), 0);
}

TEST(PurgeTunerTest, TunedRunBeatsEagerOnTotalCost) {
  GeneratedStreams g = DensePunctStreams(13);

  auto total_cost = [&](bool tuned) {
    JoinOptions opts;
    opts.purge_mode = PurgeMode::kScan;
    opts.runtime.purge_threshold = 1;
    PJoin join(g.schema_a, g.schema_b, opts);
    PurgeThresholdTuner::Options topts;
    topts.interval = 500;
    PurgeThresholdTuner tuner(&join, topts);
    PipelineOptions popts;
    if (tuned) {
      popts.progress = [&tuner](int64_t) { tuner.Observe(); };
    }
    JoinPipeline pipe(&join, nullptr, popts);
    Status st = pipe.Run(g.a, g.b);
    PJOIN_DCHECK(st.ok());
    return join.counters().Get("purge_scanned") +
           join.counters().Get("probe_comparisons");
  };
  EXPECT_LT(total_cost(true), total_cost(false));
}

TEST(PurgeTunerTest, ResultsUnaffectedByTuning) {
  GeneratedStreams g = DensePunctStreams(17, 2000);
  JoinOptions opts;
  opts.runtime.purge_threshold = 1;
  PJoin join(g.schema_a, g.schema_b, opts);
  PurgeThresholdTuner tuner(&join, {.interval = 200});

  std::vector<std::string> rows;
  join.set_result_callback(
      [&rows](const Tuple& t) { rows.push_back(t.ToString()); });
  PipelineOptions popts;
  popts.progress = [&tuner](int64_t) { tuner.Observe(); };
  JoinPipeline pipe(&join, nullptr, popts);
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

TEST(PurgeTunerTest, LowersThresholdWhenProbeDominates) {
  // No punctuations at all after the start: probe cost only. Seed the run
  // with a huge threshold; the controller must walk it down.
  DomainSpec d;
  d.window_size = 4;  // few distinct keys -> fat buckets -> heavy probing
  StreamSpec spec;
  spec.num_tuples = 6000;
  spec.punct_mean_interarrival_tuples = 50;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 19);

  JoinOptions opts;
  opts.purge_mode = PurgeMode::kScan;
  opts.runtime.purge_threshold = 1024;
  PJoin join(g.schema_a, g.schema_b, opts);
  PurgeThresholdTuner::Options topts;
  topts.interval = 500;
  PurgeThresholdTuner tuner(&join, topts);
  PipelineOptions popts;
  popts.progress = [&tuner](int64_t) { tuner.Observe(); };
  JoinPipeline pipe(&join, nullptr, popts);
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());
  EXPECT_LT(tuner.current_threshold(), 1024);
  EXPECT_GT(tuner.adjustments_down(), 0);
}

TEST(PurgeTunerTest, RespectsBounds) {
  SchemaPtr sa = testing::KeyPayloadSchema("a");
  SchemaPtr sb = testing::KeyPayloadSchema("b");
  JoinOptions opts;
  opts.runtime.purge_threshold = 4;
  PJoin join(sa, sb, opts);
  PurgeThresholdTuner::Options topts;
  topts.min_threshold = 2;
  topts.max_threshold = 8;
  topts.interval = 1;
  PurgeThresholdTuner tuner(&join, topts);
  // With zero activity the deltas are 0: d_scan(0) > high*max(1, d_probe=0)
  // is false and d_scan < low*d_probe(0) is false -> threshold untouched.
  for (int i = 0; i < 10; ++i) tuner.Observe();
  EXPECT_EQ(tuner.current_threshold(), 4);
}

}  // namespace
}  // namespace pjoin
