#include "obs/metrics.h"

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/alloc_tracker.h"
#include "util/durable_file.h"
#include "util/table_printer.h"

namespace lmp::obs {

Histogram::Summary Histogram::summary() const {
  Summary s;
  s.count = count_.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  s.mean = static_cast<double>(sum_.load(std::memory_order_relaxed)) /
           static_cast<double>(s.count);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);

  const auto quantile = [this, &s](double q) {
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(s.count) + 0.5);
    std::uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += buckets_[b].load(std::memory_order_relaxed);
      if (cum >= target && cum > 0) {
        // Upper edge of bucket b ([2^(b-1), 2^b)), clamped to the
        // exact observed range.
        const std::uint64_t upper =
            b == 0 ? 0 : (b >= 63 ? s.max : (1ull << b) - 1);
        const std::uint64_t est =
            upper < s.min ? s.min : (upper > s.max ? s.max : upper);
        return static_cast<double>(est);
      }
    }
    return static_cast<double>(s.max);
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

namespace {

enum class MetricKind { kCounter, kGauge, kHistogram };

struct Slot {
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct RegistryState {
  mutable std::mutex mu;
  std::map<std::string, Slot> slots;  ///< ordered: snapshots come out sorted
};

RegistryState& state() {
  static RegistryState* s = new RegistryState;  // immortal, like the tracer
  return *s;
}

[[noreturn]] void kind_clash(const std::string& name) {
  throw std::logic_error("metric '" + name +
                         "' already registered as a different kind");
}

/// Mirror of the durable-file helpers' fsync count, installed before
/// main so no fsync goes uncounted.
void count_fsync() {
  static Counter& c = MetricsRegistry::instance().counter("io.fsyncs");
  c.add(1);
}
[[maybe_unused]] const bool kFsyncMirror =
    (util::set_fsync_observer(&count_fsync), true);

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry r;
  return r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  RegistryState& s = state();
  std::lock_guard lock(s.mu);
  Slot& slot = s.slots[name];
  if (slot.counter == nullptr) {
    if (slot.gauge != nullptr || slot.histogram != nullptr) kind_clash(name);
    slot.kind = MetricKind::kCounter;
    slot.counter = std::make_unique<Counter>();
  }
  return *slot.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  RegistryState& s = state();
  std::lock_guard lock(s.mu);
  Slot& slot = s.slots[name];
  if (slot.gauge == nullptr) {
    if (slot.counter != nullptr || slot.histogram != nullptr) kind_clash(name);
    slot.kind = MetricKind::kGauge;
    slot.gauge = std::make_unique<Gauge>();
  }
  return *slot.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  RegistryState& s = state();
  std::lock_guard lock(s.mu);
  Slot& slot = s.slots[name];
  if (slot.histogram == nullptr) {
    if (slot.counter != nullptr || slot.gauge != nullptr) kind_clash(name);
    slot.kind = MetricKind::kHistogram;
    slot.histogram = std::make_unique<Histogram>();
  }
  return *slot.histogram;
}

void MetricsRegistry::reset_values() {
  RegistryState& s = state();
  std::lock_guard lock(s.mu);
  for (auto& [name, slot] : s.slots) {
    if (slot.counter) slot.counter->reset();
    if (slot.gauge) slot.gauge->reset();
    if (slot.histogram) slot.histogram->reset();
  }
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  RegistryState& s = state();
  std::lock_guard lock(s.mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, slot] : s.slots) {
    if (slot.counter) out.emplace_back(name, slot.counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> MetricsRegistry::gauges()
    const {
  RegistryState& s = state();
  std::lock_guard lock(s.mu);
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, slot] : s.slots) {
    if (slot.gauge) out.emplace_back(name, slot.gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram::Summary>>
MetricsRegistry::histograms() const {
  RegistryState& s = state();
  std::lock_guard lock(s.mu);
  std::vector<std::pair<std::string, Histogram::Summary>> out;
  for (const auto& [name, slot] : s.slots) {
    if (slot.histogram) out.emplace_back(name, slot.histogram->summary());
  }
  return out;
}

std::string format_latency_table() {
  const auto hists = MetricsRegistry::instance().histograms();
  bool any = false;
  for (const auto& [name, s] : hists) any = any || s.count > 0;
  std::string out;
  if (any) {
    // Full Summary exposure: count and min/max alongside the percentiles,
    // so the curated view no longer hides the extremes behind raw JSON.
    util::TablePrinter t({"latency (us)", "count", "mean", "p50", "p95",
                          "p99", "min", "max"});
    const auto us = [](double ns) {
      return util::TablePrinter::fmt(ns / 1000.0, 3);
    };
    for (const auto& [name, s] : hists) {
      if (s.count == 0) continue;
      t.add_row({name, std::to_string(s.count), us(s.mean), us(s.p50),
                 us(s.p95), us(s.p99), us(static_cast<double>(s.min)),
                 us(static_cast<double>(s.max))});
    }
    out = t.to_string();
  }
  // Heap traffic per attribution scope (alloc tracker): the same stage /
  // wait / slice labels as the spans above, plus whatever ran outside
  // any scope. Absent entirely when LMP_ALLOC_TRACE is compiled out.
  const auto scopes = AllocTracker::instance().by_scope();
  if (!scopes.empty()) {
    const AllocTotals tot = AllocTracker::instance().totals();
    util::TablePrinter a(
        {"alloc scope", "allocs", "frees", "bytes", "freed bytes"});
    for (const AllocSlotStats& s : scopes) {
      a.add_row({s.name, std::to_string(s.allocs), std::to_string(s.frees),
                 std::to_string(s.bytes), std::to_string(s.freed_bytes)});
    }
    a.add_row({"(total)", std::to_string(tot.allocs), std::to_string(tot.frees),
               std::to_string(tot.bytes), std::to_string(tot.freed_bytes)});
    out += a.to_string();
  }
  return out;
}

std::string format_metrics_table() {
  const auto counters = MetricsRegistry::instance().counters();
  const auto gauges = MetricsRegistry::instance().gauges();
  const auto hists = MetricsRegistry::instance().histograms();
  std::string out;
  bool any_counter = false;
  for (const auto& [name, v] : counters) any_counter = any_counter || v > 0;
  if (any_counter) {
    util::TablePrinter t({"counter", "value"});
    for (const auto& [name, v] : counters) t.add_row({name, std::to_string(v)});
    out += t.to_string();
  }
  bool any_gauge = false;
  for (const auto& [name, g] : gauges) any_gauge = any_gauge || g != 0;
  if (any_gauge) {
    util::TablePrinter t({"gauge", "value"});
    for (const auto& [name, v] : gauges) t.add_row({name, std::to_string(v)});
    out += t.to_string();
  }
  bool any_hist = false;
  for (const auto& [name, s] : hists) any_hist = any_hist || s.count > 0;
  if (any_hist) {
    // Raw units (ns for latencies, entries for depths) — the curated
    // microsecond view is format_latency_table.
    util::TablePrinter t({"histogram", "count", "mean", "p50", "p95", "p99",
                          "min", "max"});
    const auto raw = [](double v) { return util::TablePrinter::fmt(v, 1); };
    for (const auto& [name, s] : hists) {
      if (s.count == 0) continue;
      t.add_row({name, std::to_string(s.count), raw(s.mean), raw(s.p50),
                 raw(s.p95), raw(s.p99), std::to_string(s.min),
                 std::to_string(s.max)});
    }
    out += t.to_string();
  }
  return out;
}

}  // namespace lmp::obs
