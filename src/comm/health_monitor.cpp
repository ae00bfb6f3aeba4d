#include "comm/health_monitor.h"

#include <algorithm>
#include <sstream>

namespace lmp::comm {

EscalationDecision HealthMonitor::assess(
    const CommHealthReport& h) const {
  EscalationDecision d;
  std::ostringstream os;
  const auto trip = [&](const char* name, std::uint64_t value,
                        std::uint64_t limit) {
    if (limit == 0 || value <= limit) return;
    if (d.escalate) os << ", ";
    os << name << " " << value << " > max " << limit;
    d.escalate = true;
  };
  trip("nacks_sent", h.nacks_sent, thr_.max_nacks);
  trip("retransmits_served", h.retransmits_served, thr_.max_retransmits);
  trip("crc_rejects", h.crc_rejects, thr_.max_crc_rejects);
  trip("duplicates_dropped", h.duplicates_dropped, thr_.max_duplicates);
  if (thr_.min_tnis > 0 && h.tnis_in_use > 0 &&
      h.tnis_in_use < thr_.min_tnis) {
    if (d.escalate) os << ", ";
    os << "tnis_in_use " << h.tnis_in_use << " < min " << thr_.min_tnis;
    d.escalate = true;
  }
  d.reason = os.str();
  return d;
}

std::string describe_counters(const CommHealthReport& h) {
  std::ostringstream os;
  os << "nacks=" << h.nacks_sent << " retransmits=" << h.retransmits_served
     << " crc_rejects=" << h.crc_rejects
     << " duplicates=" << h.duplicates_dropped
     << " unreachable_puts=" << h.unreachable_puts
     << " tnis_in_use=" << h.tnis_in_use;
  return os.str();
}

std::vector<std::string> default_failover_chain() {
  return {"6tni_p2p", "4tni_p2p", "mpi_p2p", "ref"};
}

std::vector<std::string> resolve_failover_chain(
    const std::string& active, const std::vector<std::string>& chain) {
  std::vector<std::string> out;
  out.push_back(active);
  const auto it = std::find(chain.begin(), chain.end(), active);
  const auto first = it == chain.end() ? chain.begin() : it + 1;
  for (auto c = first; c != chain.end(); ++c) {
    if (*c != active) out.push_back(*c);
  }
  return out;
}

}  // namespace lmp::comm
