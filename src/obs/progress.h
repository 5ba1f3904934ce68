// PunctuationFrontierTracker: per (stream side × punctuation scheme ×
// shard) progress accounting for punctuated joins (docs/OBSERVABILITY.md,
// "Diagnosing a stalled join").
//
// Latency histograms can say *that* punctuations are slow; the frontier
// tracker says *where* one is stuck. The router notes every punctuation it
// dispatches (ingress) and the shard loop notes every punctuation it
// consumes — so a cell whose processed count trails its ingress count
// identifies the exact shard whose frontier stopped advancing, and for how
// long. PJoin additionally reports the *expected-but-unfired purge set*:
// punctuations that arrived while coverable state was resident but whose
// purge has not run yet (lazy purge makes some pending work normal; a
// pile-up during a stall is the smoking gun).
//
// Threading: ingress is noted by the router thread, processing by shard
// worker threads. Cells are registered under a mutex (punctuations are
// rare — hundreds per second, not millions) and their fields are plain
// atomics, so the health watchdog and /healthz handlers snapshot them
// without stopping the pipeline.

#ifndef PJOIN_OBS_PROGRESS_H_
#define PJOIN_OBS_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pjoin {
namespace obs {

/// One cell's consistent-enough copy for the watchdog / debug endpoints.
struct FrontierCell {
  int side = 0;          // 0 = left, 1 = right
  std::string scheme;    // punctuation scheme: "constant", "range", ...
  int shard = 0;
  int64_t ingress_count = 0;    // punctuations the router dispatched here
  int64_t processed_count = 0;  // punctuations the shard consumed
  TimeMicros last_ingress_us = 0;
  TimeMicros last_processed_us = 0;
  /// When the cell first fell behind (processed < ingress); 0 = caught up.
  TimeMicros behind_since_us = 0;
  /// The frontier: a short description of the latest punctuation seen.
  std::string last_punct;

  /// Time this shard's frontier has been behind the router's dispatches.
  /// 0 when caught up.
  TimeMicros LagMicros(TimeMicros now_us) const {
    if (processed_count >= ingress_count || behind_since_us == 0) return 0;
    return now_us > behind_since_us ? now_us - behind_since_us : 0;
  }
};

/// Per-shard purge expectation (PJoin): punctuations that arrived with
/// coverable resident state whose purge has not run yet.
struct PurgeExpectation {
  int shard = 0;
  int64_t pending_puncts = 0;
};

struct FrontierSnapshot {
  std::vector<FrontierCell> cells;
  std::vector<PurgeExpectation> purges;
};

/// Process-global tracker (like Tracer / MetricsRegistry): pipelines deep
/// in the call stack contribute without threading a handle through every
/// layer, and the watchdog / introspection server read one well-known
/// place.
class FrontierTracker {
 public:
  static FrontierTracker& Global();
  PJOIN_DISALLOW_COPY_AND_MOVE(FrontierTracker);

  /// Router: a punctuation of (side, scheme) was dispatched to `shard`.
  /// `punct` is a short human-readable description kept as the frontier.
  void NoteIngress(int side, std::string_view scheme, int shard,
                   TimeMicros now_us, std::string_view punct);
  /// Shard worker: `shard` consumed one punctuation of (side, scheme) —
  /// its join processed it, or a failed shard discarded it.
  void NoteProcessed(int side, std::string_view scheme, int shard,
                     TimeMicros now_us);

  /// PJoin: a punctuation arrived while coverable tuples were
  /// memory-resident — a purge is now expected.
  void NotePurgeExpected(int shard);
  /// PJoin: a purge ran at `shard`, applying every pending punctuation.
  void NotePurgeFired(int shard);

  [[nodiscard]] FrontierSnapshot Snap() const EXCLUDES(mu_);

  /// Drops all cells. Test-only: callers must ensure no pipeline is
  /// running.
  void ResetForTest() EXCLUDES(mu_);

 private:
  struct Cell {
    std::atomic<int64_t> ingress{0};
    std::atomic<int64_t> processed{0};
    std::atomic<int64_t> last_ingress_us{0};
    std::atomic<int64_t> last_processed_us{0};
    std::atomic<int64_t> behind_since_us{0};
    Mutex punct_mu;
    std::string last_punct GUARDED_BY(punct_mu);
  };
  struct PurgeCell {
    std::atomic<int64_t> pending_puncts{0};
  };

  FrontierTracker() = default;

  Cell* GetCell(int side, std::string_view scheme, int shard) EXCLUDES(mu_);
  PurgeCell* GetPurgeCell(int shard) EXCLUDES(mu_);

  mutable Mutex mu_;
  // std::map: deterministic snapshot order (side, scheme, shard).
  std::map<std::tuple<int, std::string, int>, std::unique_ptr<Cell>> cells_
      GUARDED_BY(mu_);
  std::map<int, std::unique_ptr<PurgeCell>> purge_cells_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace pjoin

#endif  // PJOIN_OBS_PROGRESS_H_
