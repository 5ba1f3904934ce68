// Ablation A7: the paper's *motivating* benefit (Fig 1) measured
// end-to-end — how early can a blocking group-by emit finished groups when
// PJoin propagates punctuations, vs. having to wait for end-of-stream?
//
// Metric: per finished auction item, the stream time between the item's
// close (its Bid punctuation) and the group-by emitting the item's total.
// Without propagation every result waits for end-of-stream.

#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "gen/auction.h"
#include "join/pjoin.h"
#include "ops/groupby.h"
#include "ops/pipeline.h"
#include "ops/sink.h"

using namespace pjoin;
using namespace pjoin::bench;

namespace {

struct LatencyRun {
  std::vector<int64_t> latency_ms;
  int64_t emitted_before_eos = 0;
  int64_t emitted_total = 0;
};

LatencyRun Run(const AuctionStreams& streams, bool propagate,
               TimeMicros eos_time,
               const std::unordered_map<int64_t, TimeMicros>& close_time) {
  JoinOptions jopts;
  jopts.runtime.purge_threshold = 1;
  jopts.runtime.propagate_count_threshold = propagate ? 2 : 0;
  jopts.propagate_on_finish = propagate;
  PJoin join(streams.open_schema, streams.bid_schema, jopts);
  GroupBy groupby(join.output_schema(), 0, {{AggKind::kCount, 0, "n"}},
                  /*group_aliases=*/{3});

  LatencyRun out;
  // GroupBy stamps punctuation-closed groups with the closing arrival time
  // and end-of-stream flushes with arrival 0, which distinguishes early
  // emissions from blocked ones.
  CallbackSink sink([&](const Tuple& t, TimeMicros arrival) {
    ++out.emitted_total;
    const bool at_eos = (arrival == 0);
    if (!at_eos) ++out.emitted_before_eos;
    auto it = close_time.find(t.field(0).AsInt64());
    if (it != close_time.end()) {
      const TimeMicros emit_time = at_eos ? eos_time : join.last_arrival();
      out.latency_ms.push_back(
          std::max<int64_t>(0, (emit_time - it->second) / 1000));
    }
  });
  groupby.set_downstream(&sink);

  JoinPipeline pipeline(&join, &groupby);
  Status st = pipeline.Run(streams.open, streams.bid);
  PJOIN_DCHECK(st.ok());
  return out;
}

}  // namespace

int main() {
  AuctionSpec spec;
  spec.num_bids = 20000;
  spec.open_window = 20;
  spec.close_mean_interarrival_bids = 40;
  AuctionStreams streams = GenerateAuction(spec, 4);

  // Close time per item = arrival of its Bid punctuation.
  std::unordered_map<int64_t, TimeMicros> close_time;
  TimeMicros eos_time = 0;
  for (const StreamElement& e : streams.bid) {
    eos_time = std::max(eos_time, e.arrival());
    if (e.is_punctuation() && e.punctuation().pattern(0).IsConstant()) {
      close_time.emplace(e.punctuation().pattern(0).constant().AsInt64(),
                         e.arrival());
    }
  }

  LatencyRun with = Run(streams, true, eos_time, close_time);
  LatencyRun without = Run(streams, false, eos_time, close_time);

  PrintHeader("Ablation A7", "group-by result latency (Fig 1 motivation)",
              "20k bids, 20 open items, close every ~40 bids; latency = "
              "item close -> group result, in stream ms");
  PrintMetric("items emitted before EOS (with propagation)",
              static_cast<double>(with.emitted_before_eos));
  PrintMetric("items emitted before EOS (without)",
              static_cast<double>(without.emitted_before_eos));
  std::printf("  latency with propagation:    %s\n",
              SummarizeSamples(with.latency_ms).c_str());
  std::printf("  latency without propagation: %s\n",
              SummarizeSamples(without.latency_ms).c_str());
  PrintShapeCheck("propagation lets most groups finish before end-of-stream",
                  with.emitted_before_eos * 10 > with.emitted_total * 8);
  PrintShapeCheck("without propagation nothing finishes early",
                  without.emitted_before_eos == 0);
  PrintShapeCheck(
      "median group latency at least 10x lower with propagation",
      Median(with.latency_ms) * 10 < Median(without.latency_ms) + 1);
  PrintShapeCheck("same final answers",
                  with.emitted_total == without.emitted_total);
  return 0;
}
