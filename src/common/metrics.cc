#include "common/metrics.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/macros.h"
#include "common/mutex.h"

namespace pjoin {

void TimeSeries::Record(TimeMicros time, int64_t value) {
  if (min_interval_ > 0 && !samples_.empty() &&
      time - samples_.back().time < min_interval_) {
    pending_ = Sample{time, value};
    has_pending_ = true;
    return;
  }
  samples_.push_back(Sample{time, value});
  has_pending_ = false;
}

void TimeSeries::Flush() {
  if (!has_pending_) return;
  samples_.push_back(pending_);
  has_pending_ = false;
}

int64_t TimeSeries::MaxValue() const {
  int64_t best = std::numeric_limits<int64_t>::min();
  for (const auto& s : samples_) best = std::max(best, s.value);
  return samples_.empty() ? 0 : best;
}

double TimeSeries::MeanValue() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : samples_) sum += static_cast<double>(s.value);
  return sum / static_cast<double>(samples_.size());
}

int64_t TimeSeries::LastValue() const {
  return samples_.empty() ? 0 : samples_.back().value;
}

std::vector<Sample> TimeSeries::Resample(TimeMicros horizon,
                                         int buckets) const {
  PJOIN_DCHECK(buckets > 0);
  PJOIN_DCHECK(horizon > 0);
  std::vector<Sample> out;
  out.reserve(static_cast<size_t>(buckets));
  size_t idx = 0;
  int64_t last = 0;
  for (int b = 1; b <= buckets; ++b) {
    const TimeMicros t = horizon * b / buckets;
    while (idx < samples_.size() && samples_[idx].time <= t) {
      last = samples_[idx].value;
      ++idx;
    }
    out.push_back(Sample{t, last});
  }
  return out;
}

void CounterSet::Add(const std::string& name, int64_t delta) {
  counters_[name] += delta;
}

int64_t CounterSet::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void CounterSet::Merge(const CounterSet& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
}

void CounterSet::Reset() { counters_.clear(); }

std::string CounterSet::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << " ";
    first = false;
    os << name << "=" << value;
  }
  return os.str();
}

void SharedCounterSet::Add(const std::string& name, int64_t delta) {
  MutexLock lock(mu_);
  counters_.Add(name, delta);
}

int64_t SharedCounterSet::Get(const std::string& name) const {
  MutexLock lock(mu_);
  return counters_.Get(name);
}

void SharedCounterSet::Merge(const CounterSet& other) {
  MutexLock lock(mu_);
  counters_.Merge(other);
}

CounterSet SharedCounterSet::Snapshot() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace pjoin
