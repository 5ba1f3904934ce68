// Spans recorded by the benchmark around its calls into each layer of the
// library (no span comes from inside the library). Each thread keeps a
// stack of open spans; closing one charges its duration minus its
// children's to the layer's self time. Full span records (name, start,
// end, parent, run id) are kept in memory up to a per-thread cap and
// written out when the run ends; past the cap only the per-layer
// accumulators grow, so a run with millions of calls stays small.

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// The layer boundaries the benchmark times.
enum class Layer : uint8_t {
  /// PJoin::OnTupleHashed: memory join (probe, on-the-fly drop, insert).
  kJoinTuple,
  /// PJoin::OnPunctuation: purge, index build, propagation.
  kJoinPunct,
  /// PJoin::OnStreamsStalled: disk join when the inputs lull.
  kJoinStall,
  /// PJoin::Finish: final disk join and propagation.
  kJoinFinish,
  /// ParallelJoinPipeline result / punctuation callbacks on the merger.
  kMerge,
  /// GroupBy::OnTuple / OnPunctuation / OnEndOfStream.
  kGroupBy,
  kCount,
};

const char* LayerName(Layer layer);

struct SpanRecord {
  uint32_t run_id = 0;
  /// Index of the parent span in the same thread's record list; -1 for a
  /// root span or a parent past the record cap.
  int32_t parent = -1;
  Layer layer = Layer::kCount;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Not thread-safe: only its own thread touches it
/// while the run is live; readers look after the threads are joined.
class ThreadTrace {
 public:
  ThreadTrace(uint32_t run_id, size_t max_records);

  void Begin(Layer layer, int64_t now_ns);
  void End(int64_t now_ns);

  int64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<size_t>(layer)];
  }
  int64_t calls(Layer layer) const {
    return calls_[static_cast<size_t>(layer)];
  }
  /// Sum of self time over every layer: the time this thread spent inside
  /// some timed call.
  int64_t attributed_ns() const;
  const std::vector<SpanRecord>& records() const { return records_; }
  int64_t dropped_records() const { return dropped_; }

 private:
  struct Open {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    int32_t record;
  };

  uint32_t run_id_;
  size_t max_records_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> records_;
  int64_t dropped_ = 0;
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> self_ns_{};
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> calls_{};
};

/// Process-wide switch and registry: while a session is live every thread
/// that opens a span gets its own ThreadTrace for that session.
class TraceSession {
 public:
  /// Starts a session; drops the previous session's traces. Only call
  /// while no other thread is inside a span.
  static void Start(uint32_t run_id);
  static void Stop();
  /// The calling thread's trace, or null when no session is live.
  static ThreadTrace* Current();
  /// Traces of the current (or last stopped) session, in creation order.
  static std::vector<const ThreadTrace*> Threads();
  /// Writes every recorded span as tab-separated lines; false on I/O error.
  static bool WriteRecords(const std::string& path);
};

/// Times one call into a layer when a session is live; inert otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : trace_(TraceSession::Current()) {
    if (trace_ != nullptr) trace_->Begin(layer, NowNs());
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
