#include "serve/telemetry.h"

#include <algorithm>
#include <chrono>

#include "obs/alloc_tracker.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "serve/job_server.h"
#include "tofu/hardware.h"
#include "tofu/link_telemetry.h"

namespace lmp::serve {

namespace {

std::int64_t steady_ms() { return obs::now_ns() / 1000000; }

/// [[t, v], ...] for every sample inside the window.
void write_series(obs::JsonWriter& j, const obs::TimeSeries* s,
                  std::int64_t now_ms, std::int64_t window_ms) {
  j.begin_array();
  if (s != nullptr) {
    for (const obs::Sample& x : s->samples_since(now_ms - window_ms)) {
      j.begin_array();
      j.value(x.t_ms);
      j.value(x.value);
      j.end_array();
    }
  }
  j.end_array();
}

}  // namespace

TelemetrySampler::TelemetrySampler(JobServer& server, TelemetryConfig cfg)
    : server_(server),
      cfg_(cfg),
      series_(cfg.series_capacity),
      slo_(
          [&cfg] {
            obs::SloPolicy p = cfg.default_slo;
            if (p.window_ms <= 0) p.window_ms = cfg.window_ms;
            return p;
          }(),
          cfg.series_capacity) {
  for (const auto& [tenant, policy] : cfg_.tenant_slo) {
    obs::SloPolicy p = policy;
    if (p.window_ms <= 0) p.window_ms = cfg_.window_ms;
    slo_.set_policy(tenant, p);
  }
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
  std::lock_guard<std::mutex> lk(loop_mu_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread([this] { loop(); });
}

void TelemetrySampler::stop() {
  {
    std::lock_guard<std::mutex> lk(loop_mu_);
    stop_requested_ = true;
  }
  loop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TelemetrySampler::loop() {
  LMP_TRACE_THREAD(-1, 90, "telemetry-sampler");
  std::unique_lock<std::mutex> lk(loop_mu_);
  while (!stop_requested_) {
    lk.unlock();
    tick();
    lk.lock();
    loop_cv_.wait_for(lk, std::chrono::milliseconds(cfg_.interval_ms),
                      [this] { return stop_requested_; });
  }
}

void TelemetrySampler::tick() {
  std::lock_guard<std::mutex> lk(tick_mu_);
  tick_locked(steady_ms());
}

void TelemetrySampler::tick_locked(std::int64_t t_ms) {
  LMP_TRACE_SPAN(obs::TraceCat::kServe, "telemetry.tick");

  // (1) Server probe: one brief server-lock acquisition.
  const ServerProbe probe = server_.probe_telemetry();
  last_jobs_ = probe.jobs;
  last_queue_depth_ = probe.queue_depth;
  last_running_ = probe.running;
  series_.series("server.queue_depth").append(t_ms, static_cast<double>(probe.queue_depth));
  series_.series("server.running").append(t_ms, static_cast<double>(probe.running));

  // (2) Per-job step progress deltas -> per-job, per-tenant, and server
  // step series, plus the SLO step/rollback signals. The delta trackers
  // absorb restarts (a recovered job's live step can restart lower).
  std::map<std::string, double> tenant_steps;
  std::map<std::string, double> tenant_rollbacks;
  double server_steps = 0.0;
  for (const JobProgress& jp : probe.jobs) {
    // A job first seen here is primed at the progress it had when this
    // server took it, so steps run before the first tick that sees the
    // job (a job shorter than one interval) still count.
    const auto [it, fresh] = job_step_deltas_.try_emplace(jp.id);
    if (fresh) {
      it->second.advance(
          static_cast<std::uint64_t>(std::max<std::int64_t>(jp.start_steps, 0)));
    }
    const std::uint64_t delta = it->second.advance(
        static_cast<std::uint64_t>(std::max<std::int64_t>(jp.steps, 0)));
    if (delta > 0 || jp.state == JobState::kRunning) {
      series_.series("job." + std::to_string(jp.id) + ".steps")
          .append(t_ms, static_cast<double>(delta));
    }
    tenant_steps[jp.tenant] += static_cast<double>(delta);
    server_steps += static_cast<double>(delta);
    tenant_rollbacks[jp.tenant] += 0.0;  // ensure the tenant key exists
  }
  series_.series("server.steps").append(t_ms, server_steps);
  for (const auto& [tenant, steps] : tenant_steps) {
    series_.series("tenant." + tenant + ".steps").append(t_ms, steps);
    slo_.record_steps(tenant, t_ms, steps);
  }

  // Rollbacks ride the probe as journaled totals; delta per tenant.
  {
    std::map<std::string, std::uint64_t> totals;
    for (const JobProgress& jp : probe.jobs) totals[jp.tenant] += jp.rollbacks;
    for (const auto& [tenant, total] : totals) {
      const std::uint64_t d =
          counter_deltas_["slo.rollbacks." + tenant].advance(total);
      if (d > 0) slo_.record_rollbacks(tenant, t_ms, static_cast<double>(d));
    }
  }

  // (3) Metrics-registry counters: delta-snapshot the lock-free values
  // into "counter.<name>" series (the hot path is never locked — only
  // its relaxed atomics are read).
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counters()) {
    const std::uint64_t d = counter_deltas_["counter." + name].advance(value);
    series_.series("counter." + name).append(t_ms, static_cast<double>(d));
  }

  // (4) Per-TNI fabric utilization from the live-fabric roll-up
  // (monotonic across per-attempt fabric lifetimes).
  const std::vector<tofu::FabricTniStat> tnis =
      tofu::LiveFabricRegistry::instance().tni_totals();
  for (std::size_t i = 0; i < tnis.size(); ++i) {
    const std::uint64_t db = tni_bytes_deltas_[i].advance(tnis[i].bytes);
    const std::uint64_t dp = tni_packets_deltas_[i].advance(tnis[i].packets);
    series_.series("tni." + std::to_string(i) + ".bytes")
        .append(t_ms, static_cast<double>(db));
    series_.series("tni." + std::to_string(i) + ".packets")
        .append(t_ms, static_cast<double>(dp));
  }

  // (4b) Process memory: heap-live / RSS gauges and the allocation rate
  // (delta of the tracker's global counter). Reading the tracker is a
  // handful of relaxed loads; the /proc read is one tiny file. Heap
  // series sit at zero when LMP_ALLOC_TRACE is compiled out — RSS is
  // real either way.
  {
    const obs::AllocTotals mem = obs::AllocTracker::instance().totals();
    series_.series("mem.heap_live_bytes")
        .append(t_ms, static_cast<double>(mem.live_bytes));
    series_.series("mem.rss_bytes")
        .append(t_ms, static_cast<double>(tofu::probe_rss_bytes()));
    const std::uint64_t da = counter_deltas_["mem.allocs"].advance(mem.allocs);
    series_.series("mem.alloc_rate").append(t_ms, static_cast<double>(da));
  }

  // (5) SLO windows: evaluate every tenant, emit breach transitions.
  last_slo_ = slo_.evaluate(t_ms, probe.running_tenants);

  ticks_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::instance().counter("serve.telemetry_ticks").add();
}

std::string TelemetrySampler::snapshot_json() {
  std::lock_guard<std::mutex> lk(tick_mu_);
  const std::int64_t t_ms = steady_ms();
  tick_locked(t_ms);
  return build_json_locked(t_ms);
}

std::string TelemetrySampler::build_json_locked(std::int64_t t_ms) {
  const std::int64_t window = cfg_.window_ms;
  obs::JsonWriter j;
  j.begin_object();
  j.kv("schema", "lmp-telemetry-snapshot");
  // v2 added the "memory" block (heap-live/RSS/alloc-rate series).
  j.kv("version", 2);
  j.kv("now_ms", t_ms);
  j.kv("interval_ms", static_cast<std::uint64_t>(cfg_.interval_ms));
  j.kv("window_ms", window);
  j.kv("ticks", ticks());

  // --- server -----------------------------------------------------------
  j.key("server");
  j.begin_object();
  j.kv("queue_depth", last_queue_depth_);
  j.kv("running", last_running_);
  j.kv("live_fabrics",
       static_cast<std::uint64_t>(tofu::LiveFabricRegistry::instance().live_count()));
  {
    const obs::TimeSeries* steps = series_.find("server.steps");
    const obs::WindowAggregate a =
        steps != nullptr ? steps->aggregate(t_ms, window) : obs::WindowAggregate{};
    j.kv("step_rate_per_s", a.rate_per_s);
    j.kv("steps_in_window", a.sum);
    j.key("step_series");
    write_series(j, steps, t_ms, window);
    j.key("queue_depth_series");
    write_series(j, series_.find("server.queue_depth"), t_ms, window);
  }
  j.key("counters");
  j.begin_object();
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counters()) {
    j.key(name);
    j.begin_object();
    j.kv("total", value);
    const obs::TimeSeries* s = series_.find("counter." + name);
    j.kv("rate_per_s",
         s != nullptr ? s->aggregate(t_ms, window).rate_per_s : 0.0);
    j.end_object();
  }
  j.end_object();
  j.key("histograms");
  j.begin_object();
  for (const auto& [name, sum] :
       obs::MetricsRegistry::instance().histograms()) {
    j.key(name);
    j.begin_object();
    j.kv("count", sum.count);
    j.kv("mean", sum.mean);
    j.kv("p50", sum.p50);
    j.kv("p95", sum.p95);
    j.kv("p99", sum.p99);
    j.kv("min", sum.min);
    j.kv("max", sum.max);
    j.end_object();
  }
  j.end_object();
  j.end_object();  // server

  // --- tenants (SLO windows) ---------------------------------------------
  j.key("tenants");
  j.begin_array();
  for (const obs::TenantSlo& t : last_slo_) {
    j.begin_object();
    j.kv("tenant", t.tenant);
    j.kv("active", t.active);
    j.kv("window_ms", t.window_ms);
    j.kv("queue_wait_samples", t.queue_wait_samples);
    j.kv("queue_wait_p50_ms", t.queue_wait_p50_ms);
    j.kv("queue_wait_p99_ms", t.queue_wait_p99_ms);
    j.kv("deadline_hits", t.deadline_hits);
    j.kv("deadline_misses", t.deadline_misses);
    j.kv("deadline_hit_rate", t.deadline_hit_rate);
    j.kv("steps_per_sec", t.steps_per_sec);
    j.kv("integrity_rollbacks", t.integrity_rollbacks);
    j.kv("breached", t.breached());
    j.kv("breach_queue_wait", t.breach_queue_wait);
    j.kv("breach_deadline", t.breach_deadline);
    j.kv("breach_step_rate", t.breach_step_rate);
    j.kv("breach_rollbacks", t.breach_rollbacks);
    j.kv("detail", t.breach_detail());
    j.end_object();
  }
  j.end_array();

  // --- jobs ---------------------------------------------------------------
  j.key("jobs");
  j.begin_array();
  for (const JobProgress& jp : last_jobs_) {
    j.begin_object();
    j.kv("id", jp.id);
    j.kv("tenant", jp.tenant);
    j.kv("name", jp.name);
    j.kv("state", job_state_name(jp.state));
    j.kv("steps", jp.steps);
    j.kv("total_steps", static_cast<std::int64_t>(jp.total_steps));
    const obs::TimeSeries* s =
        series_.find("job." + std::to_string(jp.id) + ".steps");
    j.kv("rate_per_s",
         s != nullptr ? s->aggregate(t_ms, window).rate_per_s : 0.0);
    j.end_object();
  }
  j.end_array();

  // --- per-TNI utilization ------------------------------------------------
  j.key("tnis");
  j.begin_array();
  {
    const std::vector<tofu::FabricTniStat> tnis =
        tofu::LiveFabricRegistry::instance().tni_totals();
    for (std::size_t i = 0; i < tnis.size(); ++i) {
      j.begin_object();
      j.kv("tni", static_cast<std::uint64_t>(i));
      j.kv("bytes_total", tnis[i].bytes);
      j.kv("packets_total", tnis[i].packets);
      const obs::TimeSeries* sb =
          series_.find("tni." + std::to_string(i) + ".bytes");
      const obs::TimeSeries* sp =
          series_.find("tni." + std::to_string(i) + ".packets");
      j.kv("bytes_per_s",
           sb != nullptr ? sb->aggregate(t_ms, window).rate_per_s : 0.0);
      j.kv("packets_per_s",
           sp != nullptr ? sp->aggregate(t_ms, window).rate_per_s : 0.0);
      j.key("bytes_series");
      write_series(j, sb, t_ms, window);
      j.end_object();
    }
  }
  j.end_array();

  // --- process memory (v2) ------------------------------------------------
  j.key("memory");
  j.begin_object();
  {
    const obs::AllocTotals mem = obs::AllocTracker::instance().totals();
    j.kv("tracked", obs::alloc_trace_compiled_in());
    j.kv("heap_live_bytes", mem.live_bytes);
    j.kv("heap_high_water_bytes", mem.high_water_bytes);
    j.kv("rss_bytes", tofu::probe_rss_bytes());
    j.kv("total_allocs", mem.allocs);
    j.kv("total_bytes", mem.bytes);
    const obs::TimeSeries* rate = series_.find("mem.alloc_rate");
    j.kv("allocs_per_s",
         rate != nullptr ? rate->aggregate(t_ms, window).rate_per_s : 0.0);
    j.key("heap_live_series");
    write_series(j, series_.find("mem.heap_live_bytes"), t_ms, window);
    j.key("rss_series");
    write_series(j, series_.find("mem.rss_bytes"), t_ms, window);
    j.key("alloc_rate_series");
    write_series(j, series_.find("mem.alloc_rate"), t_ms, window);
  }
  j.end_object();

  // --- SLO transition events ----------------------------------------------
  j.key("slo_events");
  j.begin_array();
  for (const obs::SloBreachEvent& ev : slo_.events()) {
    j.begin_object();
    j.kv("t_ms", ev.t_ms);
    j.kv("tenant", ev.tenant);
    j.kv("entered", ev.entered);
    j.kv("detail", ev.detail);
    j.end_object();
  }
  j.end_array();

  j.end_object();
  return j.str();
}

}  // namespace lmp::serve
