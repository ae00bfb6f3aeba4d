#include "obs/slo.h"

#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace lmp::obs {

namespace {

std::string fmt(const char* format, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return std::string(buf);
}

}  // namespace

std::string TenantSlo::breach_detail() const {
  std::string out;
  const auto add = [&out](const std::string& part) {
    if (!out.empty()) out += "; ";
    out += part;
  };
  if (breach_queue_wait) {
    add(fmt("queue-wait-p99 %.1fms > %.1fms", queue_wait_p99_ms,
            policy.queue_wait_p99_ms));
  }
  if (breach_deadline) {
    add(fmt("deadline-hit-rate %.3f < %.3f", deadline_hit_rate,
            policy.deadline_hit_rate_min));
  }
  if (breach_step_rate) {
    add(fmt("steps/s %.2f < %.2f", steps_per_sec, policy.steps_per_sec_min));
  }
  if (breach_rollbacks) {
    add(fmt("integrity-rollbacks %.0f over budget %.0f",
            static_cast<double>(integrity_rollbacks),
            static_cast<double>(policy.integrity_rollback_budget)));
  }
  return out;
}

SloAccountant::SloAccountant(SloPolicy default_policy,
                             std::size_t series_capacity)
    : default_policy_(default_policy), series_capacity_(series_capacity) {}

void SloAccountant::set_policy(const std::string& tenant,
                               const SloPolicy& policy) {
  std::lock_guard<std::mutex> lk(mu_);
  policies_[tenant] = policy;
}

SloAccountant::Tenant& SloAccountant::tenant_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, std::make_unique<Tenant>(series_capacity_))
             .first;
  }
  return *it->second;
}

void SloAccountant::record_queue_wait(const std::string& tenant,
                                      std::int64_t t_ms, double wait_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  tenant_locked(tenant).queue_wait_ms.append(t_ms, wait_ms);
}

void SloAccountant::record_deadline(const std::string& tenant,
                                    std::int64_t t_ms, bool hit) {
  std::lock_guard<std::mutex> lk(mu_);
  tenant_locked(tenant).deadline_outcomes.append(t_ms, hit ? 1.0 : 0.0);
}

void SloAccountant::record_steps(const std::string& tenant, std::int64_t t_ms,
                                 double steps) {
  std::lock_guard<std::mutex> lk(mu_);
  tenant_locked(tenant).step_deltas.append(t_ms, steps);
}

void SloAccountant::record_rollbacks(const std::string& tenant,
                                     std::int64_t t_ms, double rollbacks) {
  std::lock_guard<std::mutex> lk(mu_);
  tenant_locked(tenant).rollback_deltas.append(t_ms, rollbacks);
}

std::vector<TenantSlo> SloAccountant::evaluate(
    std::int64_t now_ms, const std::set<std::string>& running_tenants) {
  std::vector<TenantSlo> out;
  std::vector<SloBreachEvent> transitions;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out.reserve(tenants_.size());
    for (auto& [name, tenant] : tenants_) {
      const auto pit = policies_.find(name);
      const SloPolicy& policy =
          pit == policies_.end() ? default_policy_ : pit->second;

      TenantSlo slo;
      slo.tenant = name;
      slo.window_ms = policy.window_ms;
      slo.active = running_tenants.count(name) > 0;
      slo.policy = policy;

      const WindowAggregate waits =
          tenant->queue_wait_ms.aggregate(now_ms, policy.window_ms);
      slo.queue_wait_samples = waits.count;
      slo.queue_wait_p50_ms = waits.p50;
      slo.queue_wait_p99_ms = waits.p99;
      if (policy.queue_wait_p99_ms > 0.0 && waits.count > 0 &&
          waits.p99 > policy.queue_wait_p99_ms) {
        slo.breach_queue_wait = true;
      }

      const WindowAggregate outcomes =
          tenant->deadline_outcomes.aggregate(now_ms, policy.window_ms);
      if (outcomes.count > 0) {
        // Samples are 1.0 hit / 0.0 miss, so the window sum is the hit
        // count and mean is the hit rate.
        slo.deadline_hits = static_cast<std::uint64_t>(
            std::llround(outcomes.sum));
        slo.deadline_misses = outcomes.count - slo.deadline_hits;
        slo.deadline_hit_rate = outcomes.mean;
        if (policy.deadline_hit_rate_min > 0.0 &&
            slo.deadline_hit_rate < policy.deadline_hit_rate_min) {
          slo.breach_deadline = true;
        }
      }

      const WindowAggregate steps =
          tenant->step_deltas.aggregate(now_ms, policy.window_ms);
      slo.steps_per_sec = steps.rate_per_s;
      if (policy.steps_per_sec_min > 0.0 && slo.active &&
          slo.steps_per_sec < policy.steps_per_sec_min) {
        slo.breach_step_rate = true;
      }

      const WindowAggregate rollbacks =
          tenant->rollback_deltas.aggregate(now_ms, policy.window_ms);
      slo.integrity_rollbacks =
          static_cast<std::uint64_t>(std::llround(rollbacks.sum));
      if (policy.integrity_rollback_budget >= 0 &&
          static_cast<std::int64_t>(slo.integrity_rollbacks) >
              policy.integrity_rollback_budget) {
        slo.breach_rollbacks = true;
      }

      const bool breached = slo.breached();
      if (breached != tenant->in_breach) {
        tenant->in_breach = breached;
        SloBreachEvent ev;
        ev.t_ms = now_ms;
        ev.tenant = name;
        ev.entered = breached;
        ev.detail = breached ? slo.breach_detail() : "recovered";
        if (breached) ++breaches_entered_;
        events_.push_back(ev);
        while (events_.size() > kMaxEvents) events_.pop_front();
        transitions.push_back(std::move(ev));
      }
      out.push_back(std::move(slo));
    }
  }
  // Emit transition instants outside the accountant lock. Tracer names
  // must be static literals; the tenant + detail travel as counters
  // cannot carry strings, so breaches also bump a metric the snapshot
  // and health report expose with full detail from events().
  for (const SloBreachEvent& ev : transitions) {
    if (ev.entered) {
      LMP_TRACE_INSTANT(lmp::obs::TraceCat::kServe, "slo.breach");
      MetricsRegistry::instance().counter("serve.slo_breaches").add(1);
    } else {
      LMP_TRACE_INSTANT(lmp::obs::TraceCat::kServe, "slo.recover");
    }
  }
  return out;
}

std::vector<SloBreachEvent> SloAccountant::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<SloBreachEvent>(events_.begin(), events_.end());
}

std::uint64_t SloAccountant::breaches_entered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return breaches_entered_;
}

std::set<std::string> SloAccountant::breached_tenants() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::set<std::string> out;
  for (const auto& [name, tenant] : tenants_) {
    if (tenant->in_breach) out.insert(name);
  }
  return out;
}

}  // namespace lmp::obs
