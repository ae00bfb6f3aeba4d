#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/serve_protocol.h"

namespace lmp::serve {

class JobServer;

/// Sampler + SLO configuration, embedded in ServerConfig.
struct TelemetryConfig {
  bool enabled = true;
  /// Sampling cadence. Each tick delta-reads the lock-free counters,
  /// appends to the ring-buffered series, and re-evaluates SLO windows.
  std::uint32_t interval_ms = 100;
  /// Rolling window the snapshot aggregates (and the default SLO window
  /// when default_slo.window_ms is 0).
  std::int64_t window_ms = 10000;
  /// Ring capacity of every series (samples, not bytes).
  std::size_t series_capacity = 512;
  obs::SloPolicy default_slo{};
  std::map<std::string, obs::SloPolicy> tenant_slo;  ///< overrides by tenant
};

/// One job's live progress as the sampler sees it (steps may be ahead of
/// the journaled completed_steps — it reads the rank-0 progress atomic).
struct JobProgress {
  std::uint64_t id = 0;
  std::string tenant;
  std::string name;
  JobState state = JobState::kPending;
  std::int64_t steps = 0;
  /// Progress when this server took the job: 0, or a recovered job's
  /// journaled steps. The first sighting counts steps from here.
  std::int64_t start_steps = 0;
  std::int32_t total_steps = 0;
  std::uint64_t rollbacks = 0;  ///< journaled integrity rollbacks so far
};

/// Point-in-time server probe the sampler takes under the server lock
/// (one brief acquisition per tick — the simulation hot path is never
/// touched; it only ever sees relaxed atomic stores).
struct ServerProbe {
  std::int64_t queue_depth = 0;
  std::int64_t running = 0;
  std::set<std::string> running_tenants;
  std::vector<JobProgress> jobs;
};

/// Background telemetry sampler for one JobServer.
///
/// Owns the server's SeriesRegistry and SloAccountant. Every
/// `interval_ms` it (1) probes the server (queue depth, running lanes,
/// per-job live steps), (2) delta-snapshots the lock-free metrics
/// registry counters and the LiveFabricRegistry per-TNI totals, (3)
/// appends everything to ring-buffered series, (4) feeds the per-tenant
/// step/rollback deltas into the SLO accountant and re-evaluates breach
/// windows. `snapshot_json()` runs an extra tick first, so a `stats`
/// request always reflects the present — a deliberately missed deadline
/// flips the breach flag within one request, not one cadence.
class TelemetrySampler {
 public:
  TelemetrySampler(JobServer& server, TelemetryConfig cfg);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void start();
  void stop();

  /// One sampling pass right now (thread-safe; the background thread and
  /// snapshot requests serialize on an internal mutex).
  void tick();

  /// Fresh snapshot as one JSON document (schema
  /// "lmp-telemetry-snapshot" v1). Ticks first; see class comment.
  std::string snapshot_json();

  obs::SloAccountant& slo() { return slo_; }
  obs::SeriesRegistry& series() { return series_; }
  const TelemetryConfig& config() const { return cfg_; }
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  void loop();
  void tick_locked(std::int64_t t_ms);
  std::string build_json_locked(std::int64_t t_ms);

  JobServer& server_;
  TelemetryConfig cfg_;
  obs::SeriesRegistry series_;
  obs::SloAccountant slo_;

  /// Serializes sampling passes (background thread vs snapshot
  /// requests); never held while the server lock is held.
  std::mutex tick_mu_;
  std::map<std::string, obs::CounterDelta> counter_deltas_;
  std::map<std::uint64_t, obs::CounterDelta> job_step_deltas_;
  std::map<std::size_t, obs::CounterDelta> tni_bytes_deltas_;
  std::map<std::size_t, obs::CounterDelta> tni_packets_deltas_;
  std::vector<obs::TenantSlo> last_slo_;
  std::vector<JobProgress> last_jobs_;
  std::int64_t last_queue_depth_ = 0;
  std::int64_t last_running_ = 0;
  std::atomic<std::uint64_t> ticks_{0};

  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace lmp::serve
