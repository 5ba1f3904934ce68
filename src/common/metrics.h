// Lightweight metrics: named counters, time-series recording, and the
// power-of-two bucket law of the registry's histograms. These back both the
// test assertions ("purge ran N times") and the figure-reproduction benches
// (state size over time).

#ifndef PJOIN_COMMON_METRICS_H_
#define PJOIN_COMMON_METRICS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pjoin {

/// A (time, value) sample of a gauge such as join-state size.
struct Sample {
  TimeMicros time;
  int64_t value;
};

/// Records samples of one gauge over (virtual or wall) time, optionally
/// thinned to at most one sample per `min_interval` of time.
class TimeSeries {
 public:
  /// `min_interval` == 0 records every sample.
  explicit TimeSeries(TimeMicros min_interval = 0)
      : min_interval_(min_interval) {}

  /// Appends a sample unless it falls inside the thinning interval, in which
  /// case it is held as the pending tail (replacing any previous one) until
  /// a sample clears the interval or Flush() is called.
  void Record(TimeMicros time, int64_t value);

  /// Appends the pending thinned sample, if any. Call when the stream ends:
  /// without it the series' final value is whatever sample last cleared the
  /// thinning interval, and LastValue()/Resample() misreport the end state.
  void Flush();

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  int64_t MaxValue() const;
  double MeanValue() const;
  int64_t LastValue() const;

  /// Re-buckets the series onto a uniform grid of `buckets` intervals over
  /// [0, horizon], carrying the last value forward; useful for printing
  /// figure rows of equal length.
  std::vector<Sample> Resample(TimeMicros horizon, int buckets) const;

 private:
  TimeMicros min_interval_;
  std::vector<Sample> samples_;
  Sample pending_{0, 0};  // newest thinned sample, valid iff has_pending_
  bool has_pending_ = false;
};

/// Bucket count of the registry's power-of-two histograms
/// (obs::HistogramData).
constexpr int kHistogramBuckets = 64;

/// The one power-of-two bucket law: bucket 0 holds v <= 0; bucket b >= 1
/// holds [2^(b-1), 2^b - 1]; the last bucket also takes everything above.
inline int HistogramBucketFor(int64_t v) {
  if (v <= 0) return 0;
  return std::min(static_cast<int>(std::bit_width(static_cast<uint64_t>(v))),
                  kHistogramBuckets - 1);
}

/// A named bag of counters; operators expose one of these for inspection.
class CounterSet {
 public:
  /// Adds `delta` to counter `name`, creating it at zero if absent.
  void Add(const std::string& name, int64_t delta = 1);
  /// Value of counter `name`; 0 if never touched.
  int64_t Get(const std::string& name) const;
  /// Adds every counter of `other` into this set.
  void Merge(const CounterSet& other);
  void Reset();

  const std::map<std::string, int64_t>& counters() const { return counters_; }
  std::string ToString() const;

 private:
  std::map<std::string, int64_t> counters_;
};

/// A CounterSet shared across pipeline threads (fault decorators, shard
/// workers): every operation takes the internal mutex, and reads hand out
/// snapshots by value, never references into guarded state.
class SharedCounterSet {
 public:
  /// Adds `delta` to counter `name`, creating it at zero if absent.
  void Add(const std::string& name, int64_t delta = 1) EXCLUDES(mu_);
  /// Value of counter `name`; 0 if never touched.
  [[nodiscard]] int64_t Get(const std::string& name) const EXCLUDES(mu_);
  /// Adds every counter of `other` into this set.
  void Merge(const CounterSet& other) EXCLUDES(mu_);
  /// Consistent copy of the full set.
  [[nodiscard]] CounterSet Snapshot() const EXCLUDES(mu_);

 private:
  // tests/thread_safety_negative.cc probes the GUARDED_BY annotations.
  friend class ThreadSafetyNegativeProbe;

  mutable Mutex mu_;
  CounterSet counters_ GUARDED_BY(mu_);
};

}  // namespace pjoin

#endif  // PJOIN_COMMON_METRICS_H_
