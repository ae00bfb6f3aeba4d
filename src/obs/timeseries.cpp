#include "obs/timeseries.h"

#include <algorithm>

#include "util/stats.h"

namespace lmp::obs {

TimeSeries::TimeSeries(std::size_t capacity)
    : cap_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(cap_);
}

void TimeSeries::append(std::int64_t t_ms, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_.size() < cap_) {
    ring_.push_back({t_ms, value});
  } else {
    ring_[head_] = {t_ms, value};
    head_ = (head_ + 1) % cap_;
  }
  ++count_;
}

std::size_t TimeSeries::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.size();
}

std::uint64_t TimeSeries::total_appended() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_;
}

std::vector<Sample> TimeSeries::samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Sample> out;
  out.reserve(ring_.size());
  // Once the ring wrapped, head_ is the oldest surviving slot.
  const std::size_t start = ring_.size() < cap_ ? 0 : head_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<Sample> TimeSeries::samples_since(std::int64_t since_ms) const {
  std::vector<Sample> all = samples();
  std::vector<Sample> out;
  out.reserve(all.size());
  for (const Sample& s : all) {
    if (s.t_ms >= since_ms) out.push_back(s);
  }
  return out;
}

WindowAggregate aggregate_samples(const std::vector<Sample>& samples,
                                  std::int64_t window_ms) {
  WindowAggregate a;
  if (samples.empty()) return a;
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) {
    if (a.count == 0) {
      a.min = a.max = s.value;
    } else {
      a.min = std::min(a.min, s.value);
      a.max = std::max(a.max, s.value);
    }
    ++a.count;
    a.sum += s.value;
    values.push_back(s.value);
  }
  a.mean = a.sum / static_cast<double>(a.count);
  if (window_ms > 0) {
    a.rate_per_s = a.sum / (static_cast<double>(window_ms) / 1000.0);
  }
  // Bucketless exact percentiles: the series is already bounded by its
  // ring capacity, so a sort over <= capacity values is cheap and gives
  // the interpolated order statistics directly (unlike the power-of-two
  // approximation the lock-free Histogram trades for).
  std::sort(values.begin(), values.end());
  a.p50 = util::percentile_sorted(values, 50.0);
  a.p95 = util::percentile_sorted(values, 95.0);
  a.p99 = util::percentile_sorted(values, 99.0);
  return a;
}

WindowAggregate TimeSeries::aggregate(std::int64_t now_ms,
                                      std::int64_t window_ms) const {
  return aggregate_samples(samples_since(now_ms - window_ms), window_ms);
}

TimeSeries& SeriesRegistry::series(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(name, std::make_unique<TimeSeries>(default_capacity_))
             .first;
  }
  return *it->second;
}

const TimeSeries* SeriesRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

std::vector<std::string> SeriesRegistry::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

}  // namespace lmp::obs
