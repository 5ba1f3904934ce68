#include "ops/parallel_pipeline.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/introspection.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace pjoin {

namespace {

// Ring capacities are configured in elements but the rings carry batches;
// 0 means "effectively unbounded" (a large default).
size_t RingBatches(size_t capacity_elements, size_t batch_size) {
  if (capacity_elements == 0) capacity_elements = 65536;
  const size_t batches = capacity_elements / batch_size;
  return batches < 2 ? 2 : batches;
}

// The one placement function: the shard owning a key is a pure function of
// the key's hash. Tuple routing and constant-key punctuation routing both
// call it, so they cannot disagree about a key's owner. The hash is mixed
// before the modulo because its low bits already select the partition
// inside a shard's HashState.
int ShardOf(uint64_t key_hash, int num_shards) {
  const uint64_t mixed = (key_hash * 0x9e3779b97f4a7c15ull) >> 32;
  return static_cast<int>(mixed % static_cast<uint64_t>(num_shards));
}

// A shard flushes its staged results into its output ring after this many
// results (releases always flush with the batch they end).
constexpr size_t kResultFlush = 256;

}  // namespace

struct ParallelJoinPipeline::Shard {
  Shard(int id_in, size_t queue_batches, size_t out_batches)
      : id(id_in), queue(queue_batches), out(out_batches) {}

  const int id;
  JoinOperator* join = nullptr;
  /// Flow id of the newest sampled RoutedBatch processed and not yet
  /// flushed (worker-local; travels out with the next OutBatch).
  uint64_t pending_flow_id = 0;
  /// Router → worker: routed batches (router is the sole producer, the
  /// worker the sole consumer).
  SpscRing<RoutedBatch> queue;
  /// Worker → merger: result/release batches (worker produces, the
  /// router/caller thread consumes).
  SpscRing<OutBatch> out;
  /// Elements the worker has fully processed (atomic so the depth gauge
  /// and the /statusz section can compare it against `enqueued`).
  std::atomic<int64_t> processed{0};
  /// Elements the router has pushed (written by the router only; atomic so
  /// the /statusz section can read it live).
  std::atomic<int64_t> enqueued{0};
  /// Live routed-element backlog (enqueued - processed), published by the
  /// worker once per batch.
  obs::Gauge depth_gauge;
  /// Live ring occupancies in batches (pjoin_ring_occupancy).
  obs::Gauge queue_occupancy_gauge;
  obs::Gauge out_occupancy_gauge;
  /// Times the worker entered the spin-then-park slow path on an empty
  /// routed ring (pjoin_shard_spin_parks).
  obs::Counter spin_parks_counter;
  /// Worker-local staging, moved into `out` as one OutBatch. Results always
  /// precede the releases recorded after them (the §3.3 ordering).
  std::vector<Tuple> local_results;
  std::vector<Punctuation> local_releases;
  ShardStats stats;
  Status status;
};

ParallelJoinPipeline::ParallelJoinPipeline(JoinFactory factory,
                                           ParallelPipelineOptions options)
    : options_(options) {
  PJOIN_DCHECK(factory != nullptr);
  PJOIN_DCHECK(options_.num_shards > 0);
  PJOIN_DCHECK(options_.batch_size > 0);
  const size_t queue_batches =
      RingBatches(options_.shard_queue_capacity, options_.batch_size);
  joins_.reserve(static_cast<size_t>(options_.num_shards));
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  staged_.resize(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    joins_.push_back(factory(s));
    PJOIN_DCHECK(joins_.back() != nullptr);
    auto shard = std::make_unique<Shard>(
        s, queue_batches, std::max<size_t>(2, options_.out_ring_batches));
    shard->join = joins_.back().get();
    shard->stats.shard = s;
    shards_.push_back(std::move(shard));
  }
  // Output-schema positions of the two join keys, for the merger's
  // routed-vs-broadcast release inference (PunctReleaseBoard).
  release_board_.Configure(
      joins_[0]->state(0).key_index(),
      joins_[0]->state(0).schema()->num_fields() +
          joins_[0]->state(1).key_index(),
      options_.num_shards);
}

ParallelJoinPipeline::~ParallelJoinPipeline() = default;

CounterSet ParallelJoinPipeline::MergedCounters() const {
  CounterSet merged;
  for (const auto& join : joins_) merged.Merge(join->counters());
  return merged;
}

void ParallelJoinPipeline::FlushShardOut(Shard* shard, bool force) {
  if (shard->local_results.empty() && shard->local_releases.empty()) return;
  // Releases always flush promptly (the merger's board is waiting on them);
  // bare results batch up to kResultFlush.
  if (!force && shard->local_releases.empty() &&
      shard->local_results.size() < kResultFlush) {
    return;
  }
  OutBatch out;
  out.results = std::move(shard->local_results);
  out.releases = std::move(shard->local_releases);
  out.flow_id = shard->pending_flow_id;
  shard->pending_flow_id = 0;
  shard->local_results.clear();
  shard->local_releases.clear();
  // The moved-from vector restarts at zero capacity; reserving the flush
  // threshold up front spares the next batch the doubling re-allocations
  // (each of which would move every staged Tuple again).
  shard->local_results.reserve(kResultFlush);
  // Safe to park here: the merger (router/caller thread) drains these rings
  // whenever it waits on anything.
  shard->out.PushBlocking(std::move(out));
  // Wake a merger parked on the activity eventcount (push first, then bump:
  // a merger that re-drained after loading the count cannot miss the batch).
  out_activity_.fetch_add(1);
  out_activity_.notify_all();
}

void ParallelJoinPipeline::MergeOutBatch(OutBatch out) {
  TRACE_SPAN("par", "merge_drain");
  if (out.flow_id != 0) TRACE_FLOW_END("flow", "tuple_path", out.flow_id);
  for (Tuple& t : out.results) {
    ++results_emitted_;
    if (on_result_) on_result_(t);
  }
  bool released = false;
  for (Punctuation& p : out.releases) {
    TRACE_INSTANT("par", "punct_release");
    // The board reports completion once per full round of releases from
    // the shards the router dispatched the punctuation to (1 for routed,
    // all for broadcast) — emission happens exactly then.
    if (release_board_.Release(p)) {
      ++puncts_emitted_;
      released = true;
      if (on_punct_) on_punct_(p);
    }
  }
  if (released || !out.releases.empty()) {
    punct_pending_gauge_.Set(release_board_.pending_rounds());
  }
}

size_t ParallelJoinPipeline::DrainOutputs() {
  size_t merged = 0;
  for (auto& shard : shards_) {
    OutBatch out;
    while (shard->out.TryPop(&out)) {
      MergeOutBatch(std::move(out));
      ++merged;
    }
  }
  return merged;
}

void ParallelJoinPipeline::Stage(int shard, int8_t side,
                                 const StreamElement* e, uint64_t key_hash,
                                 TimeMicros ingress_us, uint64_t flow_id) {
  RoutedBatch& pending = staged_[static_cast<size_t>(shard)];
  if (pending.elements.empty()) pending.ingress_us = ingress_us;
  // Stamp before the flush check below so a sampled tuple that fills the
  // batch still travels with it.
  if (flow_id != 0) pending.flow_id = flow_id;
  pending.elements.push_back(e);
  pending.sides.push_back(side);
  pending.key_hashes.push_back(key_hash);
  if (e->is_tuple()) ++pending.tuple_count;
  if (pending.elements.size() >= options_.batch_size) FlushStaged(shard);
}

void ParallelJoinPipeline::FlushStaged(int shard) {
  RoutedBatch& pending = staged_[static_cast<size_t>(shard)];
  if (pending.elements.empty()) return;
  Shard& s = *shards_[static_cast<size_t>(shard)];
  s.enqueued.fetch_add(static_cast<int64_t>(pending.elements.size()));
  RoutedBatch batch = std::move(pending);
  pending = RoutedBatch{};
  pending.elements.reserve(options_.batch_size);
  pending.sides.reserve(options_.batch_size);
  pending.key_hashes.reserve(options_.batch_size);
  if (s.queue.TryPush(std::move(batch))) return;
  // Full shard ring. The router must NOT park indefinitely (it is also the
  // merger): drain the output rings — which is usually exactly what
  // unblocks the slow shard — and retry. When a retry round makes no merge
  // progress either, nap briefly instead of yield-spinning: the shard owns
  // a full ring of work, so on few-core hosts giving the core away beats
  // burning it, and the nap bounds added latency to microseconds. TryPush
  // leaves `batch` intact on failure.
  router_backpressure_waits_.fetch_add(1);
  backpressure_counter_.Add(1);
  while (true) {
    const size_t merged = DrainOutputs();
    if (s.queue.TryPush(std::move(batch))) return;
    if (merged == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      std::this_thread::yield();
    }
  }
}

void ParallelJoinPipeline::ShardLoop(Shard* shard) {
  TRACE_SET_THREAD_NAME("shard-" + std::to_string(shard->id));
  JoinOperator* join = shard->join;
  RoutedBatch batch;
  int64_t dry = 0;
  bool failed = false;
  while (true) {
    if (!shard->queue.TryPop(&batch)) {
      if (shard->queue.exhausted()) break;
      if (++dry < options_.stall_polls) {
        std::this_thread::yield();
        continue;
      }
      dry = 0;
      // This shard is dry: use the lull for background work (PJoin's disk
      // join, XJoin's reactive stage) on shard-local state, then park until
      // the router pushes or closes.
      if (!failed) {
        ++shard->stats.stalls;
        // Emissions out of the stall work (disk-join results, deferred
        // propagation) attribute latency to the stall start.
        join->set_element_ingress_micros(obs::TraceNowMicros());
        const Status st = join->OnStreamsStalled();
        if (!st.ok()) {
          shard->status = st;
          failed = true;
        }
        join->PublishStateGauges();
        FlushShardOut(shard, /*force=*/true);
      }
      shard->spin_parks_counter.Add(1);
      shard_spin_parks_.fetch_add(1);
      shard->queue.WaitForData();
      continue;
    }
    dry = 0;
    const size_t n = batch.elements.size();
    if (batch.flow_id != 0) {
      TRACE_FLOW_STEP("flow", "tuple_path", batch.flow_id);
      shard->pending_flow_id = batch.flow_id;
    }
    {
      TRACE_SPAN("par", "shard_batch");
      if (!failed) {
        shard->stats.elements += static_cast<int64_t>(n);
        shard->stats.tuples += batch.tuple_count;
        join->set_element_ingress_micros(batch.ingress_us);
        const Status st = join->ProcessBatch(
            ElementBatch{batch.elements.data(), batch.sides.data(),
                         batch.key_hashes.data(), n});
        if (!st.ok()) {
          shard->status = st;
          // Keep draining (and discarding) so the router never wedges on
          // this shard's ring; the error is surfaced after the run.
          failed = true;
        }
      }
      // Frontier accounting (obs/progress.h): every punctuation this shard
      // consumed closes one ingress the router noted, whether the join
      // processed it or a failed shard discarded it. Tuple-only batches
      // skip the walk.
      if (batch.tuple_count < static_cast<int64_t>(n)) {
        obs::FrontierTracker& frontier = obs::FrontierTracker::Global();
        const TimeMicros now_us = obs::TraceNowMicros();
        for (size_t i = 0; i < n; ++i) {
          const StreamElement& e = *batch.elements[i];
          if (!e.is_punctuation()) continue;
          const int side = batch.sides[i];
          const Pattern& key_pattern =
              e.punctuation().pattern(key_index_[side]);
          frontier.NoteProcessed(side, PatternKindName(key_pattern.kind()),
                                 shard->id, now_us);
        }
      }
      shard->processed.fetch_add(static_cast<int64_t>(n));
    }
    // Once-per-batch live publication: backlog, ring occupancies, and the
    // join's state gauges (the worker owns the join, so the HashState reads
    // are safe).
    shard->depth_gauge.Set(shard->enqueued.load() - shard->processed.load());
    shard->queue_occupancy_gauge.Set(
        static_cast<int64_t>(shard->queue.size()));
    join->PublishStateGauges();
    FlushShardOut(shard, /*force=*/false);
    shard->out_occupancy_gauge.Set(static_cast<int64_t>(shard->out.size()));
  }
  shard->depth_gauge.Set(0);
  shard->queue_occupancy_gauge.Set(0);
  join->PublishStateGauges();
  FlushShardOut(shard, /*force=*/true);
  shard->out_occupancy_gauge.Set(0);
  shard->out.Close();
  workers_done_.fetch_add(1);
  out_activity_.fetch_add(1);
  out_activity_.notify_all();
}

void ParallelJoinPipeline::RouteElement(int side, const StreamElement* e) {
  switch (e->kind()) {
    case ElementKind::kTuple: {
      // The single hash of this tuple's key for the whole pipeline: shard
      // selection here, partition selection / index probe / index insert
      // in the shard (via RoutedBatch::key_hashes).
      const uint64_t h =
          e->tuple().field(key_index_[side]).Hash();
      // Causal flow sampling: every flow_sample_period-th routed tuple is
      // stamped with its ordinal as flow id and traced router→shard→merger
      // as Chrome flow arrows. Deterministic for a fixed input order.
      ++routed_tuples_;
      uint64_t fid = 0;
      if (options_.flow_sample_period != 0 &&
          static_cast<uint64_t>(routed_tuples_) %
                  options_.flow_sample_period ==
              1 % options_.flow_sample_period) {
        fid = static_cast<uint64_t>(routed_tuples_);
        TRACE_FLOW_START("flow", "tuple_path", fid);
      }
      Stage(ShardOf(h, num_shards()), static_cast<int8_t>(side), e, h,
            route_now_us_, fid);
      break;
    }
    case ElementKind::kPunctuation: {
      // A constant-key punctuation concerns exactly the shard that can
      // hold the key's state: its owner. Non-constant patterns (range
      // flush markers, wildcards) can cover keys of every shard and
      // broadcast. The release board infers the same fan-out from the
      // pattern. Staged order keeps the punctuation behind every tuple
      // dispatched before it, per shard.
      const Pattern& key_pattern = e->punctuation().pattern(key_index_[side]);
      // Frontier accounting (obs/progress.h): every dispatch is an ingress
      // for the (side, scheme, shard) cell; the shard loop answers with
      // NoteProcessed, and the gap is the shard's frontier lag.
      const std::string_view scheme = PatternKindName(key_pattern.kind());
      const std::string punct_desc = e->punctuation().ToString();
      obs::FrontierTracker& frontier = obs::FrontierTracker::Global();
      if (key_pattern.IsConstant()) {
        const int owner = ShardOf(key_pattern.constant().Hash(), num_shards());
        Stage(owner, static_cast<int8_t>(side), e, /*key_hash=*/0,
              route_now_us_);
        frontier.NoteIngress(side, scheme, owner, route_now_us_, punct_desc);
      } else {
        for (int s = 0; s < num_shards(); ++s) {
          Stage(s, static_cast<int8_t>(side), e, /*key_hash=*/0,
                route_now_us_);
          frontier.NoteIngress(side, scheme, s, route_now_us_, punct_desc);
        }
      }
      break;
    }
    case ElementKind::kEndOfStream: {
      for (int s = 0; s < num_shards(); ++s) {
        Stage(s, static_cast<int8_t>(side), e, /*key_hash=*/0, route_now_us_);
      }
      break;
    }
  }
}

void ParallelJoinPipeline::RouterLoop(const std::vector<StreamElement>& left,
                                      const std::vector<StreamElement>& right) {
  TRACE_SET_THREAD_NAME("router");
  TRACE_SPAN("par", "router");
  const StreamElement* next[2] = {left.data(), right.data()};
  // A side's EOS is routed (broadcast) as soon as the router consumes it;
  // Run has checked that both inputs hold one, so `next` never runs past
  // the end of its vector.
  bool eos[2] = {false, false};
  int64_t since_drain = 0;
  // Ingress timestamps for latency attribution, refreshed every few
  // dispatches so the clock read amortizes off the routing hot path. The
  // resulting quantization (a handful of router iterations) is far below
  // the queueing delays the histograms exist to expose.
  route_now_us_ = obs::TraceNowMicros();
  int now_refresh = 0;

  while (!(eos[0] && eos[1])) {
    // Merge in global arrival order; ties go to the left side.
    const bool take_left =
        !eos[0] && (eos[1] || next[0]->arrival() <= next[1]->arrival());
    const int side = take_left ? 0 : 1;
    const StreamElement* e = next[side]++;
    if (now_refresh-- <= 0) {
      route_now_us_ = obs::TraceNowMicros();
      now_refresh = 63;
    }
    if (e->kind() == ElementKind::kEndOfStream) eos[side] = true;
    RouteElement(side, e);
    if (++since_drain >= static_cast<int64_t>(options_.batch_size)) {
      since_drain = 0;
      DrainOutputs();
    }
  }
  for (int s = 0; s < num_shards(); ++s) {
    FlushStaged(s);
    shards_[static_cast<size_t>(s)]->queue.Close();
  }
}

Status ParallelJoinPipeline::Run(const std::vector<StreamElement>& left,
                                 const std::vector<StreamElement>& right) {
  PJOIN_DCHECK(!ran_);
  // The router consumes each side up to its end-of-stream marker; without
  // one it would read past the end of the vector. The marker is usually
  // last, so the search runs from the back.
  auto has_eos = [](const std::vector<StreamElement>& input) {
    return std::any_of(input.rbegin(), input.rend(),
                       [](const StreamElement& e) {
                         return e.kind() == ElementKind::kEndOfStream;
                       });
  };
  if (!has_eos(left) || !has_eos(right)) {
    return Status::InvalidArgument(
        "ParallelJoinPipeline::Run: each input must hold an "
        "end-of-stream marker");
  }
  ran_ = true;
  key_index_[0] = joins_[0]->state(0).key_index();
  key_index_[1] = joins_[0]->state(1).key_index();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  backpressure_counter_ = registry.GetCounter("pjoin_router_backpressure_waits",
                                              "pipeline=parallel");
  punct_pending_gauge_ =
      registry.GetGauge("pjoin_punct_pending_rounds", "pipeline=parallel");
  // Wire per-shard output staging: results queue up locally; a punctuation
  // release is recorded behind them, and FlushShardOut moves both into the
  // shard's output ring with that order intact — so by the time the merger
  // counts the last shard's release, every covered result has already been
  // emitted ahead of it.
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    shard->local_results.reserve(kResultFlush);
    shard->join->set_result_callback([shard](Tuple&& t) {
      shard->local_results.push_back(std::move(t));
    });
    shard->join->set_punct_callback([shard](const Punctuation& p) {
      shard->local_releases.push_back(p);
    });
    const std::string labels =
        "pipeline=parallel,shard=" + std::to_string(shard->id);
    shard->join->BindLatencyMetrics(labels);
    shard->join->BindStateGauges(labels);
    // Frontier accounting: PJoin reports its purge expectations under the
    // shard's id.
    shard->join->BindFrontier(shard->id);
    shard->depth_gauge =
        registry.GetGauge("pjoin_shard_queue_depth", labels);
    shard->queue_occupancy_gauge = registry.GetGauge(
        "pjoin_ring_occupancy", "edge=shard_" + std::to_string(shard->id));
    shard->out_occupancy_gauge = registry.GetGauge(
        "pjoin_ring_occupancy", "edge=out_" + std::to_string(shard->id));
    shard->spin_parks_counter =
        registry.GetCounter("pjoin_shard_spin_parks", labels);
  }

  // Live /statusz contribution for the duration of the run: per-shard ring
  // occupancy and router/worker progress, all read through atomics so the
  // server's handler threads can call this any time.
  obs::ScopedStatusSection statusz_section(
      "parallel pipeline", [this]() {
        std::string out;
        for (const auto& shard : shards_) {
          out.append("shard ");
          out.append(std::to_string(shard->id));
          out.append(": queue_batches=");
          out.append(std::to_string(shard->queue.size()));
          out.append(" depth=");
          out.append(std::to_string(shard->enqueued.load() -
                                    shard->processed.load()));
          out.append(" enqueued=");
          out.append(std::to_string(shard->enqueued.load()));
          out.append(" processed=");
          out.append(std::to_string(shard->processed.load()));
          out.push_back('\n');
        }
        out.append("router: backpressure_waits=");
        out.append(std::to_string(router_backpressure_waits_.load()));
        out.append(" shard_spin_parks=");
        out.append(std::to_string(shard_spin_parks_.load()));
        out.push_back('\n');
        return out;
      });

  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  for (auto& shard : shards_) {
    workers.emplace_back(&ParallelJoinPipeline::ShardLoop, this, shard.get());
  }

  RouterLoop(left, right);

  // Keep merging while the workers finish their tails (a worker could
  // otherwise park forever on a full output ring) — parked on the activity
  // eventcount between drains so this thread's cycles go to the workers.
  while (true) {
    const uint32_t seq = out_activity_.load();
    const bool done = workers_done_.load() >= num_shards();
    if (DrainOutputs() == 0) {
      if (done) break;
      out_activity_.wait(seq);
    }
  }
  for (std::thread& w : workers) w.join();
  DrainOutputs();

  Status status;
  shard_stats_.clear();
  for (auto& shard : shards_) {
    shard->stats.results = shard->join->results_emitted();
    shard->stats.puncts_emitted = shard->join->puncts_emitted();
    shard->stats.state_tuples = shard->join->total_state_tuples();
    stalls_reported_ += shard->stats.stalls;
    shard_stats_.push_back(shard->stats);
    if (status.ok() && !shard->status.ok()) status = shard->status;
  }
  return status;
}

}  // namespace pjoin
