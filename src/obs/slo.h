#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/timeseries.h"

namespace lmp::obs {

/// Per-tenant service-level objectives, all assessed over one rolling
/// window. A zero (or negative, for the rollback budget) threshold
/// disables that objective — the accountant still *measures* the signal,
/// it just never flags it.
struct SloPolicy {
  std::int64_t window_ms = 60000;
  /// Queue wait (admission -> dispatch) p99 must stay below this.
  double queue_wait_p99_ms = 0.0;
  /// Fraction of deadline-carrying jobs that finished inside their
  /// deadline; only evaluated when the window saw at least one outcome.
  /// The default flags any miss in the window (hit-rate floor 0.99
  /// against integer outcomes: one miss among <100 outcomes trips it).
  double deadline_hit_rate_min = 0.99;
  /// Steps/second floor; only evaluated while the tenant has a running
  /// job (an idle tenant never breaches the floor).
  double steps_per_sec_min = 0.0;
  /// Max integrity rollbacks tolerated per window; -1 disables, 0 means
  /// any rollback breaches.
  std::int64_t integrity_rollback_budget = -1;
};

/// One tenant's evaluated SLO window: the measured signals next to their
/// thresholds and the per-objective breach verdicts.
struct TenantSlo {
  std::string tenant;
  std::int64_t window_ms = 0;
  bool active = false;  ///< tenant has a running job right now

  std::uint64_t queue_wait_samples = 0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;

  std::uint64_t deadline_hits = 0;
  std::uint64_t deadline_misses = 0;
  double deadline_hit_rate = 1.0;  ///< 1.0 when the window saw no outcomes

  double steps_per_sec = 0.0;
  std::uint64_t integrity_rollbacks = 0;

  bool breach_queue_wait = false;
  bool breach_deadline = false;
  bool breach_step_rate = false;
  bool breach_rollbacks = false;

  /// The thresholds this window was judged against (copied from the
  /// policy so a snapshot is self-describing).
  SloPolicy policy;

  bool breached() const {
    return breach_queue_wait || breach_deadline || breach_step_rate ||
           breach_rollbacks;
  }
  /// "deadline-hit-rate 0.000 < 0.990; ..." — empty when not breached.
  std::string breach_detail() const;
};

/// One breach-state transition. `entered == true` is the tenant crossing
/// into breach, false is the recovery edge. Emitted once per transition,
/// not once per evaluation — a tenant sitting in breach for a thousand
/// sampler ticks produces one event.
struct SloBreachEvent {
  std::int64_t t_ms = 0;
  std::string tenant;
  bool entered = false;
  std::string detail;
};

/// Per-tenant SLO accounting over rolling windows.
///
/// The job server records raw signals as they happen (queue waits at
/// dispatch, deadline outcomes at the terminal transition, step and
/// rollback deltas from the sampler); `evaluate` aggregates each
/// tenant's window against its policy, flags breaches, and records the
/// enter/exit transitions as structured events plus tracer instants.
/// Thread-safe throughout; never called on the simulation hot path.
class SloAccountant {
 public:
  explicit SloAccountant(SloPolicy default_policy = {},
                         std::size_t series_capacity = 1024);

  void set_policy(const std::string& tenant, const SloPolicy& policy);

  // --- signal recording -------------------------------------------------
  void record_queue_wait(const std::string& tenant, std::int64_t t_ms,
                         double wait_ms);
  /// One terminal outcome of a deadline-carrying job.
  void record_deadline(const std::string& tenant, std::int64_t t_ms, bool hit);
  /// Steps completed since the last sample (sampler delta).
  void record_steps(const std::string& tenant, std::int64_t t_ms, double steps);
  /// Integrity rollbacks since the last sample.
  void record_rollbacks(const std::string& tenant, std::int64_t t_ms,
                        double rollbacks);

  // --- evaluation -------------------------------------------------------
  /// Evaluate every known tenant's window ending at `now_ms`.
  /// `running_tenants` names the tenants with a job running right now —
  /// the steps/sec floor is only assessed for them. Breach transitions
  /// are detected against the previous evaluation and recorded.
  std::vector<TenantSlo> evaluate(std::int64_t now_ms,
                                  const std::set<std::string>& running_tenants);

  /// Transition history, oldest first (bounded; oldest dropped past the
  /// cap). `breaches_entered` counts enter-edges for the stats table.
  std::vector<SloBreachEvent> events() const;
  std::uint64_t breaches_entered() const;
  /// Tenants currently in breach (as of the last evaluate).
  std::set<std::string> breached_tenants() const;

 private:
  struct Tenant {
    TimeSeries queue_wait_ms;
    TimeSeries deadline_outcomes;  ///< 1.0 hit, 0.0 miss
    TimeSeries step_deltas;
    TimeSeries rollback_deltas;
    bool in_breach = false;
    Tenant(std::size_t cap)
        : queue_wait_ms(cap),
          deadline_outcomes(cap),
          step_deltas(cap),
          rollback_deltas(cap) {}
  };

  Tenant& tenant_locked(const std::string& name);

  SloPolicy default_policy_;
  std::size_t series_capacity_;
  mutable std::mutex mu_;
  std::map<std::string, SloPolicy> policies_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::deque<SloBreachEvent> events_;
  std::uint64_t breaches_entered_ = 0;

  static constexpr std::size_t kMaxEvents = 256;
};

}  // namespace lmp::obs
