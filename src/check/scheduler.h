// Deterministic model-checking scheduler for the lock-free spine
// (docs/STATIC_ANALYSIS.md "Model checking").
//
// TSan can only observe the interleavings the OS scheduler happens to
// produce; this explorer *enumerates* them. A test body runs under a
// cooperative virtual scheduler: every instrumented shared-memory operation
// (check/model_atomic.h) is a scheduling point, model threads are ucontext
// fibers multiplexed on the calling thread, and the explorer re-runs the
// body under systematically varied schedules:
//
//   - Depth-first enumeration of every schedule up to a preemption bound
//     (CHESS-style: unbounded = full exhaustive, bound k explores every
//     interleaving reachable with at most k involuntary context switches —
//     empirically the bound that finds almost all protocol bugs at k<=3).
//   - Seeded random walks beyond the DFS budget for larger configurations.
//
// What the harness detects, over *all* explored schedules:
//
//   - mc::Check assertion failures in the test body (lost/duplicated
//     elements, broken invariants),
//   - data races on mc::Cell payloads via vector-clock happens-before
//     tracking of the acquire/release edges the mc::atomic ops declare
//     (a misplaced memory_order_relaxed surfaces as a race even though
//     the interleaving "worked" by luck),
//   - deadlock: every thread parked in a futex-style wait with no wake
//     possible (the lost-wakeup failure mode of eventcount protocols),
//   - livelock: a schedule exceeding the per-run step budget.
//
// On failure, exploration stops and the failing schedule's full operation
// trace (thread, operation, location) is captured for replay/printing —
// the schedule prefix is deterministic, so re-running the same choices
// reproduces the bug exactly.
//
// The fibers share one OS thread, so model "threads" never run in
// parallel: all model state is mutated race-free by construction, and a
// run's decision sequence fully determines its behavior.

#ifndef PJOIN_CHECK_SCHEDULER_H_
#define PJOIN_CHECK_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <ucontext.h>
#include <vector>

#include "common/macros.h"

namespace pjoin {
namespace mc {

/// Fibers are cheap; the spine's protocols need 2-4. Raising this only
/// costs vector-clock width.
inline constexpr int kMaxModelThreads = 8;

/// Vector clock over model threads, for happens-before race detection.
struct VectorClock {
  uint64_t c[kMaxModelThreads] = {};
  void Join(const VectorClock& o) {
    for (int i = 0; i < kMaxModelThreads; ++i) {
      if (o.c[i] > c[i]) c[i] = o.c[i];
    }
  }
};

/// Type-erased hook the scheduler uses to commit TSO-buffered stores back
/// into an mc::atomic<T> without knowing T.
class AtomicBase {
 public:
  virtual ~AtomicBase() = default;
  virtual void CommitStoreBits(uint64_t bits, bool release,
                               const VectorClock& clock) = 0;
};

struct ExploreOptions {
  /// Shown in the [MC] summary line (tools/mc_report.py).
  std::string label = "mc";
  /// Involuntary-context-switch budget per schedule; < 0 removes the bound
  /// (full exhaustive — feasible only for very small bodies).
  int max_preemptions = 2;
  /// DFS budget; when exceeded the result is marked non-exhaustive.
  int64_t max_schedules = 1 << 20;
  /// Extra seeded random-walk schedules (unbounded preemptions) appended
  /// after the DFS pass — coverage beyond the preemption bound.
  int64_t random_walks = 0;
  uint64_t seed = 1;
  /// Simulate TSO store buffers: relaxed/release stores become visible to
  /// other threads only at a (scheduler-chosen) later flush point; RMWs and
  /// seq_cst stores drain the buffer first, like x86 LOCK ops.
  bool tso = false;
  /// Per-schedule livelock guard.
  int64_t max_steps = 200000;
};

struct ExploreResult {
  int64_t schedules = 0;
  /// Scheduling points visited across all schedules ("states explored").
  int64_t points = 0;
  /// True when the DFS enumerated every schedule within the preemption
  /// bound (the "exhaustive" claim is always relative to the bound).
  bool exhaustive = false;
  bool failed = false;
  std::string failure;
  /// Operation trace of the failing schedule (empty when !failed).
  std::vector<std::string> trace;

  // Echoed configuration, for the summary line.
  std::string label;
  int bound = 0;
  bool tso = false;

  /// One-line machine-parseable summary ("[MC] label=... schedules=...");
  /// tests print it, tools/mc_report.py aggregates it in CI.
  std::string Summary() const;
  std::string TraceString() const;
};

/// Thrown by the scheduler to unwind fibers when a run aborts (failure or
/// teardown). Deliberately not a std::exception so model code that catches
/// std::exception cannot swallow it.
struct AbortExecution {};

class Execution;

/// Runs `body` under every schedule (see ExploreOptions). The body runs as
/// model thread 0; it spawns peers with mc::Thread. All instrumented state
/// (mc::atomic, mc::Cell, the structures built around them) must be
/// constructed inside the body so each schedule starts fresh.
ExploreResult Explore(const ExploreOptions& options,
                      const std::function<void()>& body);

/// Model-thread handle, valid only inside an Explore body. Must be joined
/// before the body returns.
class Thread {
 public:
  explicit Thread(std::function<void()> fn);
  ~Thread();
  PJOIN_DISALLOW_COPY_AND_MOVE(Thread);
  void join();

 private:
  int tid_;
  bool joined_ = false;
};

/// Model assertion: failing records the schedule and aborts the run.
void Check(bool ok, const char* what);

/// Pure scheduling point (the model's std::this_thread::yield()).
void SchedYield();

// ---------------------------------------------------------------------------
// Execution: per-schedule state. Model code reaches it through
// Execution::Current(); tests only ever use Explore/Thread/Check.
// ---------------------------------------------------------------------------

class Execution {
 public:
  static Execution* Current();

  /// One scheduling point: records the trace entry, lets the explorer pick
  /// who runs next (possibly switching fibers), returns the current thread
  /// id once this thread is (re)granted.
  int SchedulePoint(const void* loc, const char* op);

  /// Parks the current thread on `loc` until Notify wakes it (futex
  /// semantics: value re-checks are the caller's loop).
  void BlockOnAddress(const void* loc);
  /// Wakes the lowest-tid waiter (or all) parked on `loc`.
  void Notify(const void* loc, bool all);

  [[noreturn]] void Fail(std::string what);
  /// Failure that must not throw (e.g. from a destructor during unwind).
  void FailNoThrow(std::string what);

  VectorClock& thread_clock(int tid);
  int current_tid() const { return current_; }
  /// Bumps and returns the current thread's own clock component (stamps
  /// mc::Cell accesses).
  uint64_t TickClock();

  bool tso() const { return options_.tso; }
  bool aborting() const { return abort_; }
  /// TSO: queue a store in the current thread's buffer (flushing the
  /// oldest entry first when the buffer is full).
  void BufferStore(AtomicBase* loc, uint64_t bits, bool release);
  /// TSO: newest buffered value for `loc` in the current thread's buffer.
  bool PeekBuffered(const AtomicBase* loc, uint64_t* bits) const;
  /// TSO: drain the current thread's buffer (RMW / seq_cst-store / wakeup
  /// barrier semantics).
  void FlushCurrentThread();

  // Used by mc::Thread.
  int CreateThread(std::function<void()> fn);
  void JoinThread(int tid);

 private:
  friend ExploreResult Explore(const ExploreOptions&,
                               const std::function<void()>&);

  enum class Run { kDfs, kRandom };
  enum class State : uint8_t {
    kReady,        // runnable, parked at a scheduling point (or unstarted)
    kRunning,      // the single live fiber
    kBlocked,      // futex-parked on blocked_addr
    kBlockedJoin,  // waiting for join_target to finish
    kFinished,
  };

  struct BufferedStore {
    AtomicBase* loc;
    uint64_t bits;
    bool release;
    VectorClock clock;
  };

  struct ThreadState {
    ucontext_t ctx{};        // saved at every park point
    ucontext_t start_ctx{};  // entry context (makecontext)
    std::unique_ptr<char[]> stack;
    void* asan_fake_stack = nullptr;  // ASan fiber-switch save slot
    std::function<void()> fn;
    State state = State::kFinished;
    bool started = false;
    const void* blocked_addr = nullptr;
    int join_target = -1;
    VectorClock clock;
    std::vector<BufferedStore> buffer;  // TSO store buffer (FIFO)
  };

  struct Action {
    enum Kind : uint8_t { kRunThread, kFlush, kDeadlock } kind;
    int tid;
  };

  struct Decision {
    int chosen;
    int n_enabled;
  };

  struct TraceEntry {
    int8_t tid;
    const char* op;
    int16_t loc_id;
  };

  Execution(const ExploreOptions& options, Run mode,
            const std::vector<int>* prefix, uint64_t walk_seed);

  void RunSchedule(const std::function<void()>& body);  // called by Explore
  static void TrampolineEntry();
  /// Picks and applies actions until a run-action lands; when the current
  /// thread is re-granted it returns (possibly after parking across a fiber
  /// switch). `self_enabled` is false when the caller just blocked.
  void ScheduleOut(bool self_enabled);
  std::vector<Action> ComputeEnabled(bool self_enabled) const;
  bool IsReady(int tid) const;
  int ChooseIndex(int n);
  /// Saves the current fiber into threads_[from].ctx and resumes `to`
  /// (starting its fiber lazily); returns when `from` is next granted.
  void SwitchFrom(int from, int to);
  /// Resumes `to` from a fiber that will never run again (finished).
  [[noreturn]] void JumpTo(int to);
  /// Resumes RunSchedule's caller from a finished fiber.
  [[noreturn]] void ReturnToMain();
  [[noreturn]] void TransferAfterFinish(int tid);
  void PrepareStart(int tid);
  bool AllFinished() const;
  std::string DeadlockMessage() const;
  void DoFlushOldest(int tid);
  void RecordTrace(int tid, const char* op, const void* loc);
  int LocId(const void* loc);
  std::vector<std::string> TraceLines() const;

  ExploreOptions options_;
  Run mode_;
  const std::vector<int>* prefix_;  // DFS replay prefix (may be null)
  std::mt19937_64 rng_;

  std::vector<ThreadState> threads_;
  int current_ = 0;
  int starting_tid_ = 0;  // arg hand-off into TrampolineEntry
  int preemptions_ = 0;
  int64_t steps_ = 0;
  bool abort_ = false;
  bool failed_ = false;
  std::string failure_;

  std::vector<Decision> decisions_;
  size_t decision_index_ = 0;
  std::vector<TraceEntry> trace_;
  std::vector<const void*> locs_;  // loc-id assignment, first-touch order

  ucontext_t main_ctx_{};
  // The caller's (non-fiber) stack, as ASan reported it when fiber 0 first
  // started; fibers returning to main_ctx_ announce the switch with it.
  const void* main_stack_bottom_ = nullptr;
  size_t main_stack_size_ = 0;
  void* main_fake_stack_ = nullptr;
};

}  // namespace mc
}  // namespace pjoin

#endif  // PJOIN_CHECK_SCHEDULER_H_
