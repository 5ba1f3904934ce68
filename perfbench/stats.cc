#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// Nearest rank (1-based) of percentile `p` among `n` samples, computed in
/// integer hundredths of a percent so 99 of 1000 is exactly rank 990.
size_t NearestRank(size_t n, double p) {
  const auto hundredths = static_cast<size_t>(std::llround(p * 100.0));
  return (n * hundredths + 9999) / 10000;
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = std::clamp<size_t>(NearestRank(v.size(), p), 1, v.size());
  return v[rank - 1];
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  constexpr double kCandidates[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kCandidates) {
    const size_t rank = NearestRank(n, p);
    if (rank >= 1 && n - rank >= min_beyond) return p;
  }
  return 0.0;
}

}  // namespace perfbench
