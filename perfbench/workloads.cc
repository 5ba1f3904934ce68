#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "join/pjoin.h"
#include "ops/groupby.h"
#include "ops/parallel_pipeline.h"
#include "ops/sink.h"
#include "span_trace.h"
#include "stats.h"

namespace perfbench {

using pjoin::CounterSet;
using pjoin::GroupBy;
using pjoin::JoinOperator;
using pjoin::JoinOptions;
using pjoin::ParallelJoinPipeline;
using pjoin::PJoin;
using pjoin::Punctuation;
using pjoin::SchemaPtr;
using pjoin::Status;
using pjoin::Tuple;

namespace {

// ---------------------------------------------------------------------------
// Workloads (README.md gives the reasoning and the predictions).

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "probe_sharded";
    w.why = "uniform keys, rare punctuations: probe, insert and the pipeline "
            "spine carry the run; purge, spill and group-by stay idle";
    w.domain.window_size = 16384;
    w.stream_a.num_tuples = 200'000;
    w.stream_a.punct_mean_interarrival_tuples = 50'000;
    w.stream_b = w.stream_a;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "punct_dense_sharded";
    w.why = "Fig 1 query on a 3-shard pipeline, a punctuation every 8 "
            "tuples: purge, index build, propagation and the group-by carry it";
    w.domain.window_size = 4096;
    w.stream_a.num_tuples = 60'000;
    w.stream_a.punct_mean_interarrival_tuples = 8;
    w.stream_b = w.stream_a;
    w.join.runtime.purge_threshold = 1;
    w.join.runtime.propagate_count_threshold = 2;
    w.join.eager_index_build = true;
    w.groupby = true;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "spill_skewed";
    w.why = "zipf keys under a 12k-tuple memory cap: relocation, the disk "
            "join and uneven shards carry the run";
    w.domain.window_size = 1024;
    w.stream_a.num_tuples = 100'000;
    w.stream_a.punct_mean_interarrival_tuples = 25'000;
    w.stream_b = w.stream_a;
    w.stream_a.zipf_s = 1.2;
    w.memory_cap_tuples = 12'000;
    out.push_back(w);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Timing wrappers: used only by traced repetitions.

/// PJoin with a span around each protected entry point, plus the samples
/// only the shard side can take: arrival lag and peak state.
class TimedPJoin final : public PJoin {
 public:
  TimedPJoin(SchemaPtr left, SchemaPtr right, JoinOptions options,
             const int64_t* run_start_ns)
      : PJoin(std::move(left), std::move(right), std::move(options)),
        run_start_ns_(run_start_ns) {}

  Status OnStreamsStalled() override {
    ScopedSpan span(Layer::kJoinStall);
    return PJoin::OnStreamsStalled();
  }

  /// Microseconds from Run start to each tuple's arrival at this join (the
  /// whole input is due at Run start).
  const std::vector<double>& lag_us() const { return lag_us_; }
  int64_t peak_state_tuples() const { return peak_state_; }
  /// Results emitted by the memory join (inside OnTupleHashed).
  int64_t memory_results() const { return memory_results_; }

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override {
    lag_us_.push_back(static_cast<double>(NowNs() - *run_start_ns_) / 1e3);
    const int64_t results_before = results_emitted();
    Status st;
    {
      ScopedSpan span(Layer::kJoinTuple);
      st = PJoin::OnTupleHashed(side, tuple, key_hash);
    }
    memory_results_ += results_emitted() - results_before;
    if ((++tuples_ & 255) == 0) NotePeak();
    return st;
  }
  Status OnPunctuation(int side, const Punctuation& punct) override {
    Status st;
    {
      ScopedSpan span(Layer::kJoinPunct);
      st = PJoin::OnPunctuation(side, punct);
    }
    NotePeak();
    return st;
  }
  Status Finish() override {
    NotePeak();
    ScopedSpan span(Layer::kJoinFinish);
    return PJoin::Finish();
  }

 private:
  void NotePeak() { peak_state_ = std::max(peak_state_, total_state_tuples()); }

  const int64_t* run_start_ns_;
  std::vector<double> lag_us_;
  int64_t tuples_ = 0;
  int64_t peak_state_ = 0;
  int64_t memory_results_ = 0;
};

// ---------------------------------------------------------------------------
// Memory.

/// Peak resident memory of this process. Each repetition runs in a process
/// forked for it, whose high-water mark starts at its resident size at the
/// fork (the input), so this is the peak of one repetition.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Shared pieces of one repetition.

JoinOptions ShardOptions(const WorkloadSpec& spec) {
  JoinOptions opts = spec.join;
  if (spec.memory_cap_tuples > 0) {
    opts.runtime.memory_threshold_tuples =
        spec.memory_cap_tuples / spec.shards;
  }
  return opts;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The latency percentiles of one repetition; an error when the samples
/// cannot support p99 under the reporting rule.
std::string FillLatencies(std::vector<double> group_us,
                          std::vector<double> result_us, RepResult* out) {
  if (HighestSupportedPercentile(group_us.size()) < 99.0) {
    return "only " + std::to_string(group_us.size()) +
           " group latency samples, too few for p99";
  }
  if (HighestSupportedPercentile(result_us.size()) < 99.0) {
    return "only " + std::to_string(result_us.size()) +
           " result latency samples, too few for p99";
  }
  out->group_samples = static_cast<int64_t>(group_us.size());
  out->result_samples = static_cast<int64_t>(result_us.size());
  out->group_latency_p50_us = Percentile(group_us, 50.0);
  out->group_latency_p99_us = Percentile(std::move(group_us), 99.0);
  out->result_latency_p99_us = Percentile(std::move(result_us), 99.0);
  return "";
}

/// Per-layer figures from the shards' merged join counters.
void FillJoinLayers(const CounterSet& c, const pjoin::SpillDecisionStats& spill,
                    int64_t results, int64_t memory_results,
                    int64_t peak_state, int64_t tuples_in, RepResult* out) {
  auto& m = out->layers;
  const auto get = [&c](const char* name) {
    return static_cast<double>(c.Get(name));
  };
  m["join.probe_comparisons"] = get("probe_comparisons");
  m["join.results"] = static_cast<double>(results);
  m["join.probe_yield"] = Ratio(static_cast<double>(memory_results),
                                get("probe_comparisons"));
  m["join.purge_scanned"] = get("purge_scanned");
  m["join.purged_tuples"] = get("purged_tuples");
  m["join.purge_yield"] = Ratio(get("purged_tuples"), get("purge_scanned"));
  m["join.puncts_propagated"] = get("puncts_propagated");
  m["join.propagation_share"] =
      Ratio(get("puncts_propagated"), get("puncts_in"));
  m["join.peak_state_tuples"] = static_cast<double>(peak_state);
  m["join.disk_comparisons"] = get("disk_comparisons");
  m["storage.tuples_spilled"] = static_cast<double>(spill.tuples_spilled);
  m["storage.bytes_spilled"] = static_cast<double>(spill.bytes_spilled);
  m["storage.tuples_early_purged"] =
      static_cast<double>(spill.tuples_early_purged);
  m["storage.spill_share"] = Ratio(static_cast<double>(spill.tuples_spilled),
                                   static_cast<double>(tuples_in));
}

/// Self time per layer summed over threads, and the group-by's share of
/// the time spent inside timed calls.
void FillSelfTimes(const std::vector<const ThreadTrace*>& threads,
                   RepResult* out) {
  int64_t self[static_cast<size_t>(Layer::kCount)] = {};
  int64_t busy = 0;
  for (const ThreadTrace* t : threads) {
    for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
      self[l] += t->self_ns(static_cast<Layer>(l));
    }
    busy += t->attributed_ns();
  }
  auto s = [&self](Layer l) { return Seconds(self[static_cast<size_t>(l)]); };
  auto& m = out->layers;
  m["join.tuple_busy_s"] = s(Layer::kJoinTuple);
  m["join.punct_busy_s"] = s(Layer::kJoinPunct);
  m["join.stall_busy_s"] = s(Layer::kJoinStall);
  m["join.finish_s"] = s(Layer::kJoinFinish);
  m["ops.pipeline.merge_busy_s"] = s(Layer::kMerge);
  m["ops.groupby.busy_share"] = Ratio(s(Layer::kGroupBy), Seconds(busy));
}

bool HasJoinCalls(const ThreadTrace* t) {
  return t->calls(Layer::kJoinTuple) + t->calls(Layer::kJoinPunct) +
             t->calls(Layer::kJoinFinish) >
         0;
}

// ---------------------------------------------------------------------------
// The paper's Fig 1 query tail.

/// count(*) per join key downstream of the join. The right key (output
/// field `left_fields`) always equals the left one, so punctuations on
/// either side close a group. Records every emitted group and its latency
/// from `*start_ns`, the start of Run, when the whole input is due.
class Fig1GroupBy {
 public:
  Fig1GroupBy(const SchemaPtr& join_output, size_t left_fields,
              const int64_t* start_ns)
      : groupby_(join_output, 0,
                 std::vector<pjoin::AggSpec>{{pjoin::AggKind::kCount, 0, "n"}},
                 std::vector<size_t>{left_fields}),
        sink_([this](const Tuple& row, pjoin::TimeMicros) {
          latency_us_.push_back(static_cast<double>(NowNs() - *start_ns_) / 1e3);
          groups_.Add(row.field(0).AsInt64(), row.field(1).AsInt64());
          ++emitted_;
          if (!at_end_) ++early_;
        }),
        start_ns_(start_ns) {
    groupby_.set_downstream(&sink_);
  }
  Fig1GroupBy(const Fig1GroupBy&) = delete;
  Fig1GroupBy& operator=(const Fig1GroupBy&) = delete;

  void OnResult(const Tuple& row) {
    ScopedSpan span(Layer::kGroupBy);
    Note(groupby_.OnTuple(row, 0));
  }
  void OnPunctuation(const Punctuation& punct) {
    ScopedSpan span(Layer::kGroupBy);
    Note(groupby_.OnPunctuation(punct, 0));
  }
  /// End of stream: emits the groups no punctuation closed.
  void Finish() {
    at_end_ = true;
    ScopedSpan span(Layer::kGroupBy);
    Note(groupby_.OnEndOfStream());
  }

  const Status& status() const { return status_; }
  const GroupTally& groups() const { return groups_; }
  std::vector<double>& latency_us() { return latency_us_; }
  /// Groups emitted before end of stream / all groups emitted.
  double early_share() const {
    return Ratio(static_cast<double>(early_), static_cast<double>(emitted_));
  }

 private:
  void Note(const Status& st) {
    if (status_.ok() && !st.ok()) status_ = st;
  }

  GroupBy groupby_;
  pjoin::CallbackSink sink_;
  const int64_t* start_ns_;
  Status status_;
  GroupTally groups_;
  std::vector<double> latency_us_;
  int64_t emitted_ = 0;
  int64_t early_ = 0;
  bool at_end_ = false;
};

// ---------------------------------------------------------------------------
// One repetition: ParallelJoinPipeline, closed loop.

/// Everything a pipeline repetition builds before Run; heap-allocated so
/// the callbacks can point into it.
struct PipelineRig {
  int64_t run_start_ns = 0;
  std::vector<TimedPJoin*> timed;
  std::unique_ptr<ParallelJoinPipeline> pipeline;
  ResultTally tally;
  /// Every `sample_every`-th result's delivery time: evenly spaced ranks,
  /// so their percentiles are those of all results.
  int64_t sample_every = 1;
  std::vector<int64_t> result_ns;
  /// Released punctuations with their delivery times (without a group-by).
  std::vector<std::pair<int64_t, Punctuation>> releases;
  std::unique_ptr<Fig1GroupBy> groupby;
};

std::unique_ptr<PipelineRig> BuildPipeline(const WorkloadSpec& spec,
                                           const Inputs& inputs, bool traced) {
  auto rig = std::make_unique<PipelineRig>();
  PipelineRig* r = rig.get();
  const JoinOptions opts = ShardOptions(spec);
  pjoin::ParallelPipelineOptions popts;
  popts.num_shards = spec.shards;
  const SchemaPtr& sa = inputs.streams.schema_a;
  const SchemaPtr& sb = inputs.streams.schema_b;
  r->pipeline = std::make_unique<ParallelJoinPipeline>(
      [&, r, traced](int) -> std::unique_ptr<JoinOperator> {
        if (!traced) return std::make_unique<PJoin>(sa, sb, opts);
        auto join = std::make_unique<TimedPJoin>(sa, sb, opts, &r->run_start_ns);
        r->timed.push_back(join.get());
        return join;
      },
      popts);
  r->sample_every = std::max<int64_t>(1, inputs.expected.results / 10'000);
  r->result_ns.reserve(10'001);
  if (spec.groupby) {
    r->groupby = std::make_unique<Fig1GroupBy>(
        r->pipeline->shard_join(0)->output_schema(), sa->num_fields(),
        &r->run_start_ns);
  }
  r->pipeline->set_result_callback([r](const Tuple& row) {
    ScopedSpan span(Layer::kMerge);
    r->tally.Add(row);
    if (r->tally.results % r->sample_every == 0) r->result_ns.push_back(NowNs());
    if (r->groupby) r->groupby->OnResult(row);
  });
  r->pipeline->set_punct_callback([r](const Punctuation& punct) {
    ScopedSpan span(Layer::kMerge);
    if (r->groupby) {
      r->groupby->OnPunctuation(punct);
    } else {
      r->releases.emplace_back(NowNs(), punct);
    }
  });
  return rig;
}

/// When the Fig 1 group-by (count per join key, the right key as alias)
/// downstream of the pipeline could emit each group: at the delivery of the
/// first released punctuation with that constant key (in the left or the
/// right key field), else at end of stream. The inputs carry only
/// constant-key punctuations, so that is the group-by's own rule. Computed
/// after the run from the release times, so the measured pipeline carries
/// no group-by work. Returns the number of groups closed by a punctuation.
int64_t GroupCloseTimes(const Expected& expected,
                        const std::vector<std::pair<int64_t, Punctuation>>& releases,
                        int64_t eos_ns, std::vector<int64_t>* close_ns) {
  std::unordered_map<int64_t, int64_t> closed;
  for (const auto& [ns, p] : releases) {
    for (size_t f : {size_t{0}, size_t{2}}) {
      if (!p.pattern(f).IsConstant()) continue;
      closed.try_emplace(p.pattern(f).constant().AsInt64(), ns);
      break;
    }
  }
  int64_t early = 0;
  for (const auto& [key, count] : expected.group_counts) {
    auto it = closed.find(key);
    close_ns->push_back(it == closed.end() ? eos_ns : it->second);
    if (it != closed.end()) ++early;
  }
  return early;
}

RepResult RunPipeline(const WorkloadSpec& spec, const Inputs& inputs,
                      bool traced) {
  RepResult out;
  std::unique_ptr<PipelineRig> rig = BuildPipeline(spec, inputs, traced);
  const int64_t start = NowNs();
  rig->run_start_ns = start;
  Status st = rig->pipeline->Run(inputs.streams.a, inputs.streams.b);
  if (rig->groupby) {
    rig->groupby->Finish();
    if (st.ok()) st = rig->groupby->status();
  }
  const int64_t end = NowNs();
  out.peak_rss_mb = PeakRssMb();
  out.wall_s = Seconds(end - start);
  out.tuples_per_s = static_cast<double>(inputs.tuples) / out.wall_s;

  if (!st.ok()) {
    out.error = "Run: " + st.ToString();
    return out;
  }
  out.error = CheckResults(inputs.expected, rig->tally);
  if (!out.error.empty()) return out;
  ParallelJoinPipeline& p = *rig->pipeline;

  // The whole input is due at Run start, so latency is time from Run start
  // to delivery.
  const auto since_start = [start](const std::vector<int64_t>& ns) {
    std::vector<double> us;
    us.reserve(ns.size());
    for (int64_t t : ns) us.push_back(static_cast<double>(t - start) / 1e3);
    return us;
  };
  std::vector<double> group_us;
  double early_share = 0.0;
  if (rig->groupby) {
    out.error = CheckGroups(inputs.expected, rig->groupby->groups());
    if (!out.error.empty()) return out;
    group_us = std::move(rig->groupby->latency_us());
    early_share = rig->groupby->early_share();
  } else {
    std::vector<int64_t> close_ns;
    const int64_t early =
        GroupCloseTimes(inputs.expected, rig->releases, end, &close_ns);
    group_us = since_start(close_ns);
    early_share =
        Ratio(static_cast<double>(early), static_cast<double>(close_ns.size()));
  }
  out.error = FillLatencies(std::move(group_us), since_start(rig->result_ns),
                            &out);
  if (!out.error.empty() || !traced) return out;

  // ---- Per-layer figures ----
  const std::vector<const ThreadTrace*> threads = TraceSession::Threads();
  FillSelfTimes(threads, &out);
  int64_t busy_max = 0;
  int64_t busy_sum = 0;
  int64_t attributed_max = 0;
  for (const ThreadTrace* t : threads) {
    attributed_max = std::max(attributed_max, t->attributed_ns());
    if (!HasJoinCalls(t)) continue;
    busy_max = std::max(busy_max, t->attributed_ns());
    busy_sum += t->attributed_ns();
  }
  pjoin::SpillDecisionStats spill;
  int64_t peak_state = 0;
  int64_t memory_results = 0;
  std::vector<double> lags;
  for (TimedPJoin* j : rig->timed) {
    const pjoin::SpillDecisionStats& s = j->spill_stats();
    spill.tuples_spilled += s.tuples_spilled;
    spill.bytes_spilled += s.bytes_spilled;
    spill.tuples_early_purged += s.tuples_early_purged;
    peak_state += j->peak_state_tuples();
    memory_results += j->memory_results();
    lags.insert(lags.end(), j->lag_us().begin(), j->lag_us().end());
  }
  FillJoinLayers(p.MergedCounters(), spill, p.results_emitted(),
                 memory_results, peak_state, inputs.tuples, &out);
  int64_t max_results = 0;
  for (const pjoin::ShardStats& s : p.shard_stats()) {
    max_results = std::max(max_results, s.results);
  }
  auto& m = out.layers;
  const double wall = out.wall_s;
  m["gen.lag_p99_us"] = Percentile(lags, 99.0);
  m["ops.pipeline.shard_busy_max_s"] = Seconds(busy_max);
  m["ops.pipeline.spine_s"] = wall - Seconds(busy_max);
  m["ops.pipeline.shard_idle_share"] =
      1.0 - Seconds(busy_sum) / (wall * spec.shards);
  m["ops.pipeline.router_backpressure_waits"] =
      static_cast<double>(p.router_backpressure_waits());
  m["ops.pipeline.shard_spin_parks"] =
      static_cast<double>(p.shard_spin_parks());
  m["ops.pipeline.stalls"] = static_cast<double>(p.stalls_reported());
  m["ops.pipeline.bottleneck_share"] =
      Ratio(static_cast<double>(max_results),
            static_cast<double>(p.results_emitted()));
  m["ops.groupby.early_share"] = early_share;
  m["trace.unattributed_share"] = 1.0 - Seconds(attributed_max) / wall;
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  const int64_t t0 = NowNs();
  in.streams =
      pjoin::GenerateStreams(spec.domain, spec.stream_a, spec.stream_b, seed);
  in.gen_s = Seconds(NowNs() - t0);
  const std::vector<KeyedTuple> a = TuplesOf(in.streams.a);
  const std::vector<KeyedTuple> b = TuplesOf(in.streams.b);
  in.tuples = static_cast<int64_t>(a.size() + b.size());
  in.expected = ComputeExpected(a, b);
  return in;
}

namespace {

/// Builds the workload's operators `count` times without running them and
/// returns each build's wall time in seconds. The builds run on a thread of
/// their own, so they allocate from a fresh malloc arena. On the main
/// thread they would reuse free chunks of the heap this forked process
/// shares copy-on-write with its parent, and pay a page fault for each
/// shared page they write. How many they hit depends on the parent's heap
/// layout (15-25 us or 60-80 us per build on probe_sharded), not on the
/// program.
std::vector<double> MeasureSetups(const WorkloadSpec& spec,
                                  const Inputs& inputs, int count) {
  std::vector<double> out;
  std::thread builder([&] {
    for (int k = 0; k < count; ++k) {
      const int64_t t0 = NowNs();
      std::unique_ptr<PipelineRig> rig = BuildPipeline(spec, inputs, false);
      out.push_back(Seconds(NowNs() - t0));
    }
  });
  builder.join();
  return out;
}

}  // namespace

RepResult RunRepetition(const WorkloadSpec& spec, const Inputs& inputs,
                        bool traced, uint32_t run_id) {
  const double setup_s = Median(MeasureSetups(spec, inputs, kSetupBuilds));
  if (traced) TraceSession::Start(run_id);
  RepResult out = RunPipeline(spec, inputs, traced);
  if (traced) TraceSession::Stop();
  out.setup_s = setup_s;
  return out;
}

}  // namespace perfbench
