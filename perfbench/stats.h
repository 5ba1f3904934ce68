// Small statistics helpers of the benchmark: medians, the percentile
// reporting rule and a monotonic clock.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// The reporting rule for timings: of the percentiles 50, 90, 99, 99.9 and
/// 99.99, the highest that still has at least `min_beyond` samples ranked
/// above it out of `n`. Returns 0 when even the median does not qualify.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Monotonic nanoseconds since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
