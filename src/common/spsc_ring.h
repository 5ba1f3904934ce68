// SpscRing: a bounded lock-free single-producer/single-consumer ring of
// batches — the transport of the parallel pipeline's dataflow spine
// (router→shard and shard→merger edges; see
// docs/PERFORMANCE.md "The lock-free spine").
//
// The fast path is the relaxed-atomics idiom proven by obs::TraceRing: the
// producer owns `tail_`, the consumer owns `head_`, both are monotone
// uint64 counters, and each side caches the other's counter so the common
// case is one plain load, one slot move, and one release store — no lock,
// no RMW on the critical indices, no cache-line ping-pong until the ring is
// actually full/empty.
//
// The slow path is spin-then-park: a bounded spin, then a futex-style wait
// on an eventcount (`std::atomic::wait`/`notify_one`, C++20). Eventcounts
// make the sleep race-free without Dekker fences in the fast path: the
// waiter loads the sequence word, re-checks the ring state, and only then
// waits on the loaded value; the other side publishes its ring update
// *before* bumping the sequence word, so either the re-check sees the
// update or the wait returns immediately on the bumped value. notify_one on
// an uncontended word is a plain load in libstdc++ (it checks the proxy
// waiter count first), so the per-push cost with no sleeper is one
// fetch_add + one load.
//
// The ring is templated on an atomics policy so the same protocol code can
// be model-checked: production uses RawAtomicsPolicy (below), which
// compiles to plain std::atomic with zero overhead; tests/model_check_test
// instantiates SpscRing<T, mc::ModelPolicy> (src/check/model_atomic.h),
// which routes every atomic op through a virtual scheduler and explores
// all interleavings up to a preemption bound (docs/STATIC_ANALYSIS.md
// "Model checking"). Protocol fixes belong here, once — both variants are
// the same code.
//
// This header is the sanctioned home (with obs/trace.*) for explicit
// std::memory_order arguments; everywhere else the lint rule
// `raw-atomic-ordering` (tools/lint_check.py) keeps atomics on the
// sequentially-consistent defaults.

#ifndef PJOIN_COMMON_SPSC_RING_H_
#define PJOIN_COMMON_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"

// Mutation self-test hook (ISSUE 8): -DPJOIN_MC_MUTATE weakens the
// producer's tail publish to relaxed, severing the happens-before edge
// that covers the slot write. The model checker MUST report the resulting
// data race (tests/model_check_test.cc SpscRingModel suite); CI builds this
// configuration and fails if the checker stays green. Never define it in a
// production build.
#ifdef PJOIN_MC_MUTATE
#define PJOIN_SPSC_PUBLISH_ORDER std::memory_order_relaxed
#else
#define PJOIN_SPSC_PUBLISH_ORDER std::memory_order_release
#endif

namespace pjoin {

/// Production atomics policy: plain std::atomic, plain slots, real yields.
/// SpscRing<T> == SpscRing<T, RawAtomicsPolicy> compiles to exactly the
/// pre-policy code (the Cell wrapper is a transparent struct-of-one).
struct RawAtomicsPolicy {
  template <typename U>
  using Atomic = std::atomic<U>;

  /// Non-atomic payload slot. The model policy's counterpart race-checks
  /// these accesses; here they are a move assignment and a move-out.
  template <typename U>
  struct Cell {
    U value{};
    void Store(U&& v) { value = std::move(v); }
    void MoveTo(U* out) { *out = std::move(value); }
  };

  static void Yield() { std::this_thread::yield(); }

  // Bounded spin before parking: a handful of hot re-checks, then a few
  // yields. Parking quickly matters more than spinning long — the
  // throughput case never reaches this path, and on few-core hosts a
  // spinning thread is stealing the cycles its peer needs to make progress.
  static constexpr int kBusySpins = 32;
  static constexpr int kSpinIters = 48;
};

template <typename T, typename Policy = RawAtomicsPolicy>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two, minimum 2.
  explicit SpscRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }
  PJOIN_DISALLOW_COPY_AND_MOVE(SpscRing);

  /// True iff `n` is usable as an exact capacity: a power of two >= 1.
  /// constexpr so callers can static_assert their configured sizes.
  static constexpr bool IsValidExactCapacity(size_t n) {
    return n >= 1 && (n & (n - 1)) == 0;
  }

  /// Exact-capacity construction, compile-time checked. Unlike the rounding
  /// constructor this admits capacity 1 (the tightest park/unpark window —
  /// every push/pop pair crosses the full/empty boundary).
  template <size_t N>
  static SpscRing WithCapacity() {
    static_assert(IsValidExactCapacity(N),
                  "SpscRing capacity must be a power of two >= 1");
    return SpscRing(ExactTag{}, N);
  }

  /// Runtime exact-capacity construction; dies on 0 or non-power-of-two
  /// instead of silently rounding.
  static SpscRing WithExactCapacity(size_t n) {
    PJOIN_DCHECK(IsValidExactCapacity(n));
    return SpscRing(ExactTag{}, n);
  }

  size_t capacity() const { return slots_.size(); }

  /// Producer only. Moves `item` in and returns true, or returns false
  /// (item untouched) when the ring is full.
  bool TryPush(T&& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= slots_.size()) return false;
    }
    slots_[tail & mask_].Store(std::move(item));
    tail_.store(tail + 1, PJOIN_SPSC_PUBLISH_ORDER);
    // Publish-then-bump: a consumer that re-checked emptiness after loading
    // data_seq_ either sees the new tail or sees the bump and skips the
    // sleep. notify_one is cheap when nobody waits.
    data_seq_.fetch_add(1, std::memory_order_release);
    data_seq_.notify_one();
    return true;
  }

  /// Producer only. Blocks (bounded spin, then park) until the push
  /// succeeds. Must not be called after Close().
  void PushBlocking(T&& item) {
    if (TryPush(std::move(item))) return;
    for (int spin = 0; spin < Policy::kSpinIters; ++spin) {
      if (spin >= Policy::kBusySpins) Policy::Yield();
      if (TryPush(std::move(item))) return;
    }
    while (true) {
      const uint32_t seq = space_seq_.load(std::memory_order_acquire);
      if (TryPush(std::move(item))) return;
      producer_parks_.fetch_add(1, std::memory_order_relaxed);
      space_seq_.wait(seq, std::memory_order_acquire);
    }
  }

  /// Consumer only. Moves the oldest item into `*out` and returns true, or
  /// returns false when the ring is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    slots_[head & mask_].MoveTo(out);
    head_.store(head + 1, std::memory_order_release);
    space_seq_.fetch_add(1, std::memory_order_release);
    space_seq_.notify_one();
    return true;
  }

  /// Consumer only. Returns once the ring is (probably) non-empty or
  /// closed: bounded spin, then park until the producer pushes or closes.
  /// The caller still pops via TryPop — a wake is a hint, not a handoff.
  void WaitForData() {
    for (int spin = 0; spin < Policy::kSpinIters; ++spin) {
      if (!Empty() || closed_.load(std::memory_order_acquire)) return;
      if (spin >= Policy::kBusySpins) Policy::Yield();
    }
    const uint32_t seq = data_seq_.load(std::memory_order_acquire);
    if (!Empty() || closed_.load(std::memory_order_acquire)) return;
    consumer_parks_.fetch_add(1, std::memory_order_relaxed);
    data_seq_.wait(seq, std::memory_order_acquire);
  }

  /// Consumer only. Blocking pop: false only when the ring is exhausted
  /// (closed and drained).
  bool PopBlocking(T* out) {
    while (true) {
      if (TryPop(out)) return true;
      if (exhausted()) return false;
      WaitForData();
    }
  }

  /// Producer only (or the producer's owner, after the producer is done).
  /// Marks the end of the stream and wakes both sides.
  void Close() {
    closed_.store(true, std::memory_order_release);
    data_seq_.fetch_add(1, std::memory_order_release);
    space_seq_.fetch_add(1, std::memory_order_release);
    data_seq_.notify_all();
    space_seq_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Consumer only: closed and fully drained. (The acquire load on
  /// `closed_` orders after the producer's final tail store, so a true
  /// result means no more items can appear.)
  bool exhausted() const {
    return closed_.load(std::memory_order_acquire) && Empty();
  }

  /// Approximate occupancy, safe from any thread (the two loads are not a
  /// consistent snapshot; the result may briefly overshoot).
  size_t size() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  /// Times the producer parked on a full ring / the consumer parked on an
  /// empty one (slow-path entries, not wall time).
  int64_t producer_parks() const {
    return producer_parks_.load(std::memory_order_relaxed);
  }
  int64_t consumer_parks() const {
    return consumer_parks_.load(std::memory_order_relaxed);
  }

 private:
  struct ExactTag {};
  SpscRing(ExactTag, size_t cap) {
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  template <typename U>
  using Atomic = typename Policy::template Atomic<U>;
  using Slot = typename Policy::template Cell<T>;

  bool Empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;

  // Consumer-owned index + its cache of the producer's index. Plain (not
  // atomic) cache: only the consumer touches it. The alignas keeps the two
  // sides' counters off each other's cache line.
  alignas(64) Atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;
  // Producer-owned index + its cache of the consumer's index.
  alignas(64) Atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;

  // Eventcounts for the park paths: bumped on every push (data_seq_) / pop
  // (space_seq_) and on Close.
  Atomic<uint32_t> data_seq_{0};
  Atomic<uint32_t> space_seq_{0};

  Atomic<bool> closed_{false};
  Atomic<int64_t> producer_parks_{0};
  Atomic<int64_t> consumer_parks_{0};
};

}  // namespace pjoin

#endif  // PJOIN_COMMON_SPSC_RING_H_
