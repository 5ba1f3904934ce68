// Equivalence tests for the partition-parallel pipeline: for every shard
// count the merged parallel output multiset must equal the single-threaded
// reference, across operators (PJoin / XJoin), seeds, punctuation densities
// and key skews.

#include "ops/parallel_pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "join/xjoin.h"
#include "obs/health.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ElementsBuilder;
using testing::KeyPunct;
using testing::KP;
using testing::KeyPayloadSchema;
using testing::ReferenceJoinRows;
using testing::RunJoin;
using testing::RunResult;

enum class Operator { kPJoin, kXJoin };

JoinOptions SmallStateOptions() {
  JoinOptions opts;
  opts.num_partitions = 8;
  opts.runtime.purge_threshold = 1;
  opts.runtime.memory_threshold_tuples = 64;
  opts.runtime.propagate_count_threshold = 1;
  return opts;
}

std::unique_ptr<JoinOperator> MakeJoin(Operator op, const SchemaPtr& left,
                                       const SchemaPtr& right,
                                       const JoinOptions& opts) {
  if (op == Operator::kPJoin) {
    return std::make_unique<PJoin>(left, right, opts);
  }
  return std::make_unique<XJoin>(left, right, opts);
}

/// Runs the parallel pipeline and returns the merged output in RunJoin's
/// canonicalization (sorted result rows + punctuations in emission order).
RunResult RunParallel(Operator op, const SchemaPtr& left_schema,
                      const SchemaPtr& right_schema, const JoinOptions& jopts,
                      const std::vector<StreamElement>& left,
                      const std::vector<StreamElement>& right,
                      ParallelPipelineOptions popts,
                      ParallelJoinPipeline** out_pipeline = nullptr) {
  static std::unique_ptr<ParallelJoinPipeline> last;  // keep alive for caller
  last = std::make_unique<ParallelJoinPipeline>(
      [&](int) { return MakeJoin(op, left_schema, right_schema, jopts); },
      popts);
  RunResult out;
  last->set_result_callback(
      [&out](const Tuple& t) { out.results.push_back(t.ToString()); });
  last->set_punct_callback(
      [&out](const Punctuation& p) { out.punctuations.push_back(p); });
  const Status st = last->Run(left, right);
  EXPECT_TRUE(st.ok()) << st.ToString();
  out.stalls = last->stalls_reported();
  std::sort(out.results.begin(), out.results.end());
  if (out_pipeline != nullptr) *out_pipeline = last.get();
  return out;
}

std::vector<std::string> SortedPunctStrings(const RunResult& r) {
  std::vector<std::string> out;
  out.reserve(r.punctuations.size());
  for (const Punctuation& p : r.punctuations) out.push_back(p.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

struct Workload {
  std::string name;
  GeneratedStreams streams;
};

Workload MakeWorkload(const std::string& name, uint64_t seed,
                      double punct_rate, double zipf_s) {
  DomainSpec domain;
  domain.window_size = 16;
  StreamSpec spec;
  spec.num_tuples = 1200;
  spec.punct_mean_interarrival_tuples = punct_rate;
  spec.zipf_s = zipf_s;
  spec.flush_punctuations_at_end = true;
  return Workload{name, GenerateStreams(domain, spec, spec, seed)};
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<Operator> {};

TEST_P(ParallelEquivalenceTest, MatchesReferenceAcrossSeedsAndShards) {
  const Operator op = GetParam();
  for (const uint64_t seed : {7u, 21u, 1234u}) {
    Workload w = MakeWorkload("uniform", seed, /*punct_rate=*/25.0,
                              /*zipf_s=*/0.0);
    const std::vector<std::string> reference = ReferenceJoinRows(
        w.streams.a, w.streams.b,
        MakeJoin(op, w.streams.schema_a, w.streams.schema_b, JoinOptions())
            ->output_schema(),
        0, 0);
    const JoinOptions jopts = SmallStateOptions();
    for (const int shards : {1, 2, 4}) {
      ParallelPipelineOptions popts;
      popts.num_shards = shards;
      popts.batch_size = 64;
      const RunResult got =
          RunParallel(op, w.streams.schema_a, w.streams.schema_b, jopts,
                      w.streams.a, w.streams.b, popts);
      EXPECT_EQ(got.results, reference)
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

TEST_P(ParallelEquivalenceTest, PunctuationHeavyWorkload) {
  const Operator op = GetParam();
  Workload w = MakeWorkload("punct-heavy", /*seed=*/99,
                            /*punct_rate=*/4.0, /*zipf_s=*/0.0);
  const JoinOptions jopts = SmallStateOptions();
  // Single-threaded reference through the same operator configuration.
  auto ref_join =
      MakeJoin(op, w.streams.schema_a, w.streams.schema_b, jopts);
  const RunResult ref = RunJoin(ref_join.get(), w.streams.a, w.streams.b);
  for (const int shards : {2, 4}) {
    ParallelPipelineOptions popts;
    popts.num_shards = shards;
    const RunResult got =
        RunParallel(op, w.streams.schema_a, w.streams.schema_b, jopts,
                    w.streams.a, w.streams.b, popts);
    EXPECT_EQ(got.results, ref.results) << "shards=" << shards;
  }
}

// Heavy skew pins most of the work on one shard under static sharding;
// the output must still equal the reference. s=1.6 puts roughly half of
// the tuples on the hottest key.
TEST_P(ParallelEquivalenceTest, SkewedWorkload) {
  const Operator op = GetParam();
  for (const double zipf_s : {1.2, 1.6}) {
    Workload w = MakeWorkload("zipf", /*seed=*/5150, /*punct_rate=*/20.0,
                              zipf_s);
    const std::vector<std::string> reference = ReferenceJoinRows(
        w.streams.a, w.streams.b,
        MakeJoin(op, w.streams.schema_a, w.streams.schema_b, JoinOptions())
            ->output_schema(),
        0, 0);
    const JoinOptions jopts = SmallStateOptions();
    for (const int shards : {2, 4}) {
      ParallelPipelineOptions popts;
      popts.num_shards = shards;
      const RunResult got =
          RunParallel(op, w.streams.schema_a, w.streams.schema_b, jopts,
                      w.streams.a, w.streams.b, popts);
      EXPECT_EQ(got.results, reference)
          << "zipf_s=" << zipf_s << " shards=" << shards;
    }
  }
}

TEST_P(ParallelEquivalenceTest, ScanAndIndexedProbeAgree) {
  const Operator op = GetParam();
  Workload w = MakeWorkload("probe-mode", /*seed=*/31, /*punct_rate=*/30.0,
                            /*zipf_s=*/0.5);
  JoinOptions indexed = SmallStateOptions();
  JoinOptions scan = SmallStateOptions();
  scan.indexed_probe = false;
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  const RunResult with_index =
      RunParallel(op, w.streams.schema_a, w.streams.schema_b, indexed,
                  w.streams.a, w.streams.b, popts);
  const RunResult with_scan =
      RunParallel(op, w.streams.schema_a, w.streams.schema_b, scan,
                  w.streams.a, w.streams.b, popts);
  EXPECT_EQ(with_index.results, with_scan.results);
}

INSTANTIATE_TEST_SUITE_P(Operators, ParallelEquivalenceTest,
                         ::testing::Values(Operator::kPJoin, Operator::kXJoin),
                         [](const ::testing::TestParamInfo<Operator>& info) {
                           return info.param == Operator::kPJoin ? "PJoin"
                                                                 : "XJoin";
                         });

// ---- PJoin-specific: punctuations and purge behavior ----

TEST(ParallelPJoinTest, PunctuationsReleasedOnceAndAfterCoveredResults) {
  const SchemaPtr schema = KeyPayloadSchema();
  ElementsBuilder left, right;
  for (int64_t k = 0; k < 6; ++k) {
    left.Tup(KP(schema, k, 10 + k)).Tup(KP(schema, k, 20 + k));
    right.Tup(KP(schema, k, 30 + k));
    left.Punct(KeyPunct(k));
    right.Punct(KeyPunct(k));
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();

  JoinOptions jopts = SmallStateOptions();
  auto ref_join = std::make_unique<PJoin>(schema, schema, jopts);
  const RunResult ref = RunJoin(ref_join.get(), l, r);

  for (const int shards : {1, 2, 4}) {
    ParallelPipelineOptions popts;
    popts.num_shards = shards;
    popts.batch_size = 4;
    ParallelJoinPipeline* pipeline = nullptr;
    const RunResult got = RunParallel(Operator::kPJoin, schema, schema, jopts,
                                      l, r, popts, &pipeline);
    EXPECT_EQ(got.results, ref.results) << "shards=" << shards;
    // The merge board must deduplicate the N shard-local emissions of each
    // output punctuation down to the single-threaded multiset.
    EXPECT_EQ(SortedPunctStrings(got), SortedPunctStrings(ref))
        << "shards=" << shards;
    // Every shard fully purged its state: all keys were punctuated on both
    // sides, so no shard may retain tuples the reference would have dropped.
    int64_t state = 0;
    for (const ShardStats& s : pipeline->shard_stats()) {
      state += s.state_tuples;
    }
    EXPECT_EQ(state, ref_join->total_state_tuples()) << "shards=" << shards;
  }
}

// A key's shard is a pure function of its hash, shared by tuple and
// punctuation routing. One tuple per side for each key must meet at one
// shard, so both sides agree on every owner. Every shard owns some key at
// x4, and a rerun places every tuple on the same shard. Each key's
// constant-key punctuations must reach its owner, which then purges the
// key's state.
TEST(StaticShardingTest, StaticMappingIsStableAndInRange) {
  const SchemaPtr sa = KeyPayloadSchema("a");
  const SchemaPtr sb = KeyPayloadSchema("b");
  constexpr int64_t kKeys = 200;
  ElementsBuilder left, right;
  for (int64_t k = 0; k < kKeys; ++k) {
    left.Tup(KP(sa, k, k));
    right.Tup(KP(sb, k, k));
  }
  for (int64_t k = 0; k < kKeys; ++k) {
    left.Punct(KeyPunct(k));
    right.Punct(KeyPunct(k));
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();

  ParallelPipelineOptions popts;
  popts.num_shards = 4;
  std::vector<int64_t> first_placement;
  for (int run = 0; run < 2; ++run) {
    ParallelJoinPipeline* pipeline = nullptr;
    const RunResult got = RunParallel(Operator::kPJoin, sa, sb,
                                      SmallStateOptions(), l, r, popts,
                                      &pipeline);
    EXPECT_EQ(got.results.size(), static_cast<size_t>(kKeys));
    EXPECT_EQ(got.punctuations.size(), static_cast<size_t>(2 * kKeys));
    ASSERT_EQ(pipeline->shard_stats().size(), 4u);
    std::vector<int64_t> placement;
    int64_t state = 0;
    for (const ShardStats& s : pipeline->shard_stats()) {
      EXPECT_GT(s.tuples, 0) << "shard " << s.shard << " owns no key";
      placement.push_back(s.tuples);
      state += s.state_tuples;
    }
    EXPECT_EQ(state, 0);
    if (run == 0) {
      first_placement = placement;
    } else {
      EXPECT_EQ(placement, first_placement) << "placement must be stable";
    }
  }
}

TEST(ParallelPJoinTest, ShardStatsCoverAllRoutedElements) {
  Workload w = MakeWorkload("stats", /*seed=*/8, /*punct_rate=*/20.0,
                            /*zipf_s=*/0.0);
  const JoinOptions jopts = SmallStateOptions();
  ParallelPipelineOptions popts;
  popts.num_shards = 4;
  ParallelJoinPipeline* pipeline = nullptr;
  const RunResult got =
      RunParallel(Operator::kPJoin, w.streams.schema_a, w.streams.schema_b,
                  jopts, w.streams.a, w.streams.b, popts, &pipeline);
  (void)got;
  // Data tuples and constant-key punctuations are routed to exactly one
  // shard; non-constant punctuations and the two end-of-stream markers are
  // broadcast to every shard.
  int64_t expected_elements = 2 * popts.num_shards;  // the EOS broadcasts
  for (const auto* stream : {&w.streams.a, &w.streams.b}) {
    for (const StreamElement& e : *stream) {
      if (e.is_tuple()) {
        ++expected_elements;
      } else if (e.is_punctuation()) {
        expected_elements += e.punctuation().pattern(0).IsConstant()
                                 ? 1
                                 : popts.num_shards;
      }
    }
  }
  int64_t elements = 0;
  int64_t tuples = 0;
  int64_t results = 0;
  for (const ShardStats& s : pipeline->shard_stats()) {
    elements += s.elements;
    tuples += s.tuples;
    results += s.results;
  }
  EXPECT_EQ(elements, expected_elements);
  EXPECT_EQ(tuples, w.streams.NumTuples(w.streams.a) +
                        w.streams.NumTuples(w.streams.b));
  // The merged output saw every shard-emitted result exactly once.
  EXPECT_EQ(results, pipeline->results_emitted());
}

// A shard's own join error is the run's outcome: Run returns it.
TEST(ParallelPJoinTest, ShardErrorIsRunOutcome) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions jopts = SmallStateOptions();
  jopts.violation_policy = ViolationPolicy::kFail;
  // Key 1 arrives after its own punctuation: a contract violation that makes
  // the owning shard fail with FailedPrecondition under kFail.
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Punct(KeyPunct(1))
                  .Tup(KP(sa, 1, 2))
                  .Finish();
  auto right = ElementsBuilder(/*step=*/10).Tup(KP(sb, 1, 9)).Finish();

  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline pipeline(
      [&](int) { return std::make_unique<PJoin>(sa, sb, jopts); }, popts);
  const Status st = pipeline.Run(left, right);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
}

// The router consumes each input up to its end-of-stream marker, so an
// input without one is rejected before any thread starts (rather than
// leaving the router waiting for an end that never comes).
TEST(ParallelPJoinTest, InputWithoutEndOfStreamIsRejected) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  ElementsBuilder left, right;
  for (int64_t k = 0; k < 10; ++k) {
    left.Tup(KP(sa, k % 3, k));
    right.Tup(KP(sb, k % 3, k));
  }
  const std::vector<StreamElement> with_eos[2] = {left.Finish(),
                                                  right.Finish()};
  std::vector<StreamElement> without_eos[2] = {with_eos[0], with_eos[1]};
  for (std::vector<StreamElement>& input : without_eos) input.pop_back();

  for (int missing = 0; missing < 2; ++missing) {
    ParallelPipelineOptions popts;
    popts.num_shards = 2;
    ParallelJoinPipeline pipeline(
        [&](int) {
          return std::make_unique<PJoin>(sa, sb, SmallStateOptions());
        },
        popts);
    int64_t results = 0;
    pipeline.set_result_callback([&results](const Tuple&) { ++results; });
    const Status st =
        pipeline.Run(missing == 0 ? without_eos[0] : with_eos[0],
                     missing == 1 ? without_eos[1] : with_eos[1]);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "side " << missing << ": " << st.ToString();
    EXPECT_EQ(results, 0);
    EXPECT_TRUE(pipeline.shard_stats().empty());
  }
}

// A failed shard keeps consuming (and discarding) its routed input. Each
// punctuation it consumes must still close the ingress the router noted,
// or the process-global frontier tracker reports that shard as stalled for
// the rest of the process.
TEST(ParallelPJoinTest, FailedShardLeavesNoStalledFrontier) {
  obs::FrontierTracker::Global().ResetForTest();
  obs::HealthMonitor::Global().ResetForTest();
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions jopts = SmallStateOptions();
  jopts.violation_policy = ViolationPolicy::kFail;
  // The late key-1 tuple fails its shard; the punctuation after it reaches
  // the failed shard only to be discarded.
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Punct(KeyPunct(1))
                  .Tup(KP(sa, 1, 2))
                  .Punct(KeyPunct(1))
                  .Finish();
  auto right = ElementsBuilder(/*step=*/10).Tup(KP(sb, 1, 9)).Finish();

  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline pipeline(
      [&](int) { return std::make_unique<PJoin>(sa, sb, jopts); }, popts);
  const Status st = pipeline.Run(left, right);
  ASSERT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();

  const obs::FrontierSnapshot snap = obs::FrontierTracker::Global().Snap();
  ASSERT_FALSE(snap.cells.empty());
  for (const obs::FrontierCell& cell : snap.cells) {
    EXPECT_EQ(cell.processed_count, cell.ingress_count)
        << "shard " << cell.shard << " " << cell.scheme;
  }
  const obs::HealthReport report = obs::HealthMonitor::Global().EvaluateNow(
      obs::TraceNowMicros() + 5 * kMicrosPerSecond);
  EXPECT_EQ(report.stalled_frontiers, 0);
  EXPECT_NE(report.status, obs::HealthStatus::kStalled)
      << report.ToJson();
  obs::HealthMonitor::Global().ResetForTest();
}

/// A PJoin that sleeps on every tuple, so its shard drains the routed ring
/// far slower than the router fills it.
class SlowPJoin : public PJoin {
 public:
  using PJoin::PJoin;

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return PJoin::OnTupleHashed(side, tuple, key_hash);
  }
};

// With tiny rings on every edge and slow shards, the router must repeatedly
// find a shard ring full and fall back to drain-and-yield (backpressure),
// and the merged result must still be exact.
TEST(ParallelPJoinTest, TinyRingsApplyBackpressure) {
  Workload w = MakeWorkload("backpressure", /*seed=*/7, /*punct_rate=*/12.0,
                            /*zipf_s=*/0.0);
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  popts.batch_size = 4;
  popts.shard_queue_capacity = 8;
  popts.out_ring_batches = 1;
  ParallelJoinPipeline pipeline(
      [&](int) {
        return std::make_unique<SlowPJoin>(w.streams.schema_a,
                                           w.streams.schema_b,
                                           SmallStateOptions());
      },
      popts);
  std::vector<std::string> rows;
  pipeline.set_result_callback(
      [&rows](const Tuple& t) { rows.push_back(t.ToString()); });
  ASSERT_TRUE(pipeline.Run(w.streams.a, w.streams.b).ok());
  EXPECT_GT(pipeline.router_backpressure_waits(), 0);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, ReferenceJoinRows(w.streams.a, w.streams.b,
                                    pipeline.shard_join(0)->output_schema(),
                                    0, 0));
}

TEST(ParallelPJoinTest, SingleShardMatchesMergedCountersOfReference) {
  Workload w = MakeWorkload("one-shard", /*seed=*/77, /*punct_rate=*/15.0,
                            /*zipf_s=*/0.0);
  const JoinOptions jopts = SmallStateOptions();
  auto ref_join =
      std::make_unique<PJoin>(w.streams.schema_a, w.streams.schema_b, jopts);
  const RunResult ref = RunJoin(ref_join.get(), w.streams.a, w.streams.b);

  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  ParallelJoinPipeline* pipeline = nullptr;
  const RunResult got =
      RunParallel(Operator::kPJoin, w.streams.schema_a, w.streams.schema_b,
                  jopts, w.streams.a, w.streams.b, popts, &pipeline);
  EXPECT_EQ(got.results, ref.results);
  // One shard sees the exact single-threaded element sequence, so the final
  // state must match the reference join's exactly.
  EXPECT_EQ(pipeline->shard_join(0)->total_state_tuples(),
            ref_join->total_state_tuples());
}

}  // namespace
}  // namespace pjoin
