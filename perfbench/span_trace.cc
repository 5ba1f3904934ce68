#include "span_trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

constexpr size_t kMaxRecordsPerThread = 50'000;

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  uint32_t run_id = 0;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

std::atomic<bool> g_live{false};
std::atomic<uint64_t> g_generation{0};

struct ThreadSlot {
  ThreadTrace* trace = nullptr;
  uint64_t generation = 0;
};
thread_local ThreadSlot t_slot;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kJoinTuple:
      return "join.tuple";
    case Layer::kJoinPunct:
      return "join.punct";
    case Layer::kJoinStall:
      return "join.stall";
    case Layer::kJoinFinish:
      return "join.finish";
    case Layer::kMerge:
      return "ops.pipeline.merge";
    case Layer::kGroupBy:
      return "ops.groupby";
    case Layer::kCount:
      break;
  }
  return "?";
}

ThreadTrace::ThreadTrace(uint32_t run_id, size_t max_records)
    : run_id_(run_id), max_records_(max_records) {
  stack_.reserve(16);
}

void ThreadTrace::Begin(Layer layer, int64_t now_ns) {
  int32_t record = -1;
  if (records_.size() < max_records_) {
    record = static_cast<int32_t>(records_.size());
    SpanRecord r;
    r.run_id = run_id_;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    r.layer = layer;
    r.start_ns = now_ns;
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{layer, now_ns, 0, record});
}

void ThreadTrace::End(int64_t now_ns) {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - open.start_ns;
  const auto layer = static_cast<size_t>(open.layer);
  self_ns_[layer] += duration - open.child_ns;
  ++calls_[layer];
  if (open.record >= 0) records_[static_cast<size_t>(open.record)].end_ns = now_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

int64_t ThreadTrace::attributed_ns() const {
  int64_t sum = 0;
  for (int64_t ns : self_ns_) sum += ns;
  return sum;
}

void TraceSession::Start(uint32_t run_id) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.traces.clear();
  reg.run_id = run_id;
  g_generation.fetch_add(1);
  g_live.store(true);
}

void TraceSession::Stop() { g_live.store(false); }

ThreadTrace* TraceSession::Current() {
  if (!g_live.load(std::memory_order_relaxed)) return nullptr;
  const uint64_t generation = g_generation.load();
  if (t_slot.generation != generation || t_slot.trace == nullptr) {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.traces.push_back(
        std::make_unique<ThreadTrace>(reg.run_id, kMaxRecordsPerThread));
    t_slot = ThreadSlot{reg.traces.back().get(), generation};
  }
  return t_slot.trace;
}

std::vector<const ThreadTrace*> TraceSession::Threads() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : reg.traces) out.push_back(t.get());
  return out;
}

bool TraceSession::WriteRecords(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "run\tthread\tspan\tparent\tname\tstart_ns\tend_ns\n");
  const std::vector<const ThreadTrace*> threads = Threads();
  for (size_t t = 0; t < threads.size(); ++t) {
    const std::vector<SpanRecord>& records = threads[t]->records();
    for (size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& r = records[i];
      std::fprintf(f, "%u\t%zu\t%zu\t%d\t%s\t%lld\t%lld\n", r.run_id, t, i,
                   r.parent, LayerName(r.layer),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
