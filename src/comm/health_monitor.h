#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lmp::comm {

/// Per-rank communication health: the reliability protocol's counters
/// (CommP2p::health()) plus the fabric-side fault counters the job
/// harvests from its network, summed over ranks and attempts into the
/// job record (sim::JobHealth). All zeros on a clean run — the
/// acceptance bar for "no overhead on the clean path".
struct CommHealthReport {
  // Receiver/sender protocol activity (comm layer).
  std::uint64_t nacks_sent = 0;           ///< retransmit requests issued
  std::uint64_t retransmits_served = 0;   ///< pending sends replayed
  std::uint64_t duplicates_dropped = 0;   ///< out-of-order notices filtered
  std::uint64_t crc_rejects = 0;          ///< checksum mismatches detected
  // Fabric-side injected faults (fault injector view).
  std::uint64_t notices_dropped = 0;
  std::uint64_t notices_delayed = 0;
  std::uint64_t notices_duplicated = 0;
  std::uint64_t payloads_corrupted = 0;
  std::uint64_t tni_drops = 0;            ///< puts swallowed by a dead TNI
  std::uint64_t retransmit_puts = 0;      ///< fabric-level replay puts
  std::uint64_t unreachable_puts = 0;     ///< puts refused on severed routes
  std::uint64_t fabric_puts = 0;          ///< total puts the fabric carried
  // Degradation state.
  int tnis_in_use = 0;
  int tnis_down = 0;

  CommHealthReport& operator+=(const CommHealthReport& o);

  /// True when nothing abnormal happened (degradation state and normal
  /// fabric traffic ignored).
  bool clean() const;
};

/// The report's event counters with their report names, in table order
/// (degradation state excluded): the one list summing, clean(), the
/// health table and the run report walk.
inline constexpr std::pair<const char*, std::uint64_t CommHealthReport::*>
    kHealthCounters[] = {
        {"nacks_sent", &CommHealthReport::nacks_sent},
        {"retransmits_served", &CommHealthReport::retransmits_served},
        {"duplicates_dropped", &CommHealthReport::duplicates_dropped},
        {"crc_rejects", &CommHealthReport::crc_rejects},
        {"notices_dropped", &CommHealthReport::notices_dropped},
        {"notices_delayed", &CommHealthReport::notices_delayed},
        {"notices_duplicated", &CommHealthReport::notices_duplicated},
        {"payloads_corrupted", &CommHealthReport::payloads_corrupted},
        {"tni_drops", &CommHealthReport::tni_drops},
        {"retransmit_puts", &CommHealthReport::retransmit_puts},
        {"unreachable_puts", &CommHealthReport::unreachable_puts},
        {"fabric_puts", &CommHealthReport::fabric_puts},
};

inline CommHealthReport& CommHealthReport::operator+=(
    const CommHealthReport& o) {
  for (const auto& [name, m] : kHealthCounters) this->*m += o.*m;
  tnis_in_use = std::max(tnis_in_use, o.tnis_in_use);
  tnis_down = std::max(tnis_down, o.tnis_down);
  return *this;
}

inline bool CommHealthReport::clean() const {
  for (const auto& [name, m] : kHealthCounters) {
    // fabric_puts counts ordinary traffic, not an anomaly.
    if (m != &CommHealthReport::fabric_puts && this->*m != 0) return false;
  }
  return true;
}

/// Soft escalation thresholds on the per-rank `CommHealthReport`
/// counters, assessed collectively at every checkpoint step. A value of
/// 0 disables that counter's threshold; `min_tnis` of 0 disables the
/// TNI floor. With everything disabled only *hard* comm errors
/// (CommTimeoutError, UnreachableError) trigger a failover.
struct HealthThresholds {
  std::uint64_t max_nacks = 0;         ///< retransmit requests issued
  std::uint64_t max_retransmits = 0;   ///< replays served to peers
  std::uint64_t max_crc_rejects = 0;   ///< corrupted payloads detected
  std::uint64_t max_duplicates = 0;    ///< stale/dup notices filtered
  int min_tnis = 0;                    ///< fewer surviving TNIs escalates

  bool any() const {
    return max_nacks > 0 || max_retransmits > 0 || max_crc_rejects > 0 ||
           max_duplicates > 0 || min_tnis > 0;
  }
};

/// Outcome of one threshold assessment.
struct EscalationDecision {
  bool escalate = false;
  std::string reason;  ///< which counter tripped, with its value and limit
};

/// Escalation policy: compares a health report against the thresholds
/// and names every exceeded budget. Stateless — the counters themselves
/// accumulate inside the comm layer, so a variant that keeps limping
/// eventually crosses a budget even at a low per-step fault rate.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthThresholds thresholds = {})
      : thr_(thresholds) {}

  const HealthThresholds& thresholds() const { return thr_; }
  bool enabled() const { return thr_.any(); }

  EscalationDecision assess(const CommHealthReport& h) const;

 private:
  HealthThresholds thr_;
};

/// One-line counter summary for escalation-event reasons ("nacks=12
/// retransmits=7 ..."), so the health table can tell the recovery story
/// without reprinting a full report per event.
std::string describe_counters(const CommHealthReport& h);

/// The paper-ordered degradation ladder: each step gives up fabric
/// parallelism (6 TNIs -> 4 TNIs), then the fabric itself (-> MPI p2p),
/// then the optimized pattern (-> reference brick comm).
std::vector<std::string> default_failover_chain();

/// Full escalation order for a run that starts on `active`: `active`
/// first, then the chain entries after `active`'s position — or, when
/// `active` is not in the chain, the whole chain as fallbacks.
std::vector<std::string> resolve_failover_chain(
    const std::string& active, const std::vector<std::string>& chain);

}  // namespace lmp::comm
