#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lmp::obs {

/// Monotonic named counter (relaxed atomics — hot-path safe).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value gauge with a high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    std::int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket latency/size histogram: 64 power-of-two buckets (bucket
/// b holds samples with bit_width b, i.e. [2^(b-1), 2^b)). Percentiles
/// are bucket-resolution estimates — a p-quantile answer is the upper
/// edge of the bucket where the cumulative count crosses p, clamped to
/// the exact observed min/max. That is accurate to within a factor of 2,
/// which is the right trade for a lock-free hot path (pMR and friends
/// make the same choice).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  struct Summary {
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
  };

  void record(std::uint64_t x) {
    buckets_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(x, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    update_max(x);
    update_min(x);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  Summary summary() const;
  void reset();

  static int bucket_of(std::uint64_t x) {
    const int w = std::bit_width(x);  // 0 for x==0
    return w < kBuckets ? w : kBuckets - 1;
  }

 private:
  void update_max(std::uint64_t x) {
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (x > prev &&
           !max_.compare_exchange_weak(prev, x, std::memory_order_relaxed)) {
    }
  }
  void update_min(std::uint64_t x) {
    std::uint64_t prev = min_.load(std::memory_order_relaxed);
    while (x < prev &&
           !min_.compare_exchange_weak(prev, x, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

/// Process-wide registry of named metrics. Registration (first lookup
/// of a name) takes a mutex; the returned references are stable for the
/// process lifetime, so hot paths cache them and never look up again.
/// `reset_values` zeroes every metric without invalidating references —
/// the contract that lets back-to-back runs in one process (tests,
/// failover attempts) share instruments.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create. Throws std::logic_error if `name` is already
  /// registered as a different metric kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  void reset_values();

  /// Sorted-by-name snapshots for the report writer / health table.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, std::int64_t>> gauges() const;
  std::vector<std::pair<std::string, Histogram::Summary>> histograms() const;

 private:
  MetricsRegistry() = default;
};

/// Render the latency histograms the metrics registry collected this run
/// (put latency per TNI, notice waits, pool dispatch/run, ...) as a
/// table in microseconds, three decimals — followed, when the alloc
/// tracker saw traffic, by the per-scope allocation table (allocs /
/// frees / bytes per attribution scope). Empty string when no histogram
/// recorded anything and no allocation was tracked.
std::string format_latency_table();

/// Render the FULL metrics registry — every counter, gauge (value and
/// high-water mark), and histogram in its raw units — as plain-text
/// tables. The `--metrics` / script `metrics` dump; format_latency_table
/// remains the curated microsecond subset. Empty string when nothing was
/// recorded.
std::string format_metrics_table();

}  // namespace lmp::obs
