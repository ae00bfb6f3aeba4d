#include "tofu/fault.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "tofu/topology.h"

namespace lmp::tofu {

namespace {

/// splitmix64 finalizer — the same mixer util::Rng seeds with, used here
/// as a stateless hash so decisions need no shared mutable RNG state
/// (shared state would make the fault sequence depend on thread timing).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double to_unit(std::uint64_t v) {
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

constexpr char kAxisNames[kAxisCount] = {'X', 'Y', 'Z', 'a', 'b', 'c'};

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const double r : {plan_.drop_rate, plan_.delay_rate,
                         plan_.duplicate_rate, plan_.corrupt_rate}) {
    if (r < 0.0 || r > 1.0) {
      throw std::invalid_argument("fault rates must be in [0, 1]");
    }
  }
  if (plan_.max_delay_polls < 1) {
    throw std::invalid_argument("max_delay_polls must be >= 1");
  }
  for (const int t : plan_.dead_tnis) {
    if (t < 0 || t >= 64) throw std::invalid_argument("dead TNI out of range");
    down_mask_ |= 1ULL << t;
  }
  for (const int ax : plan_.down_axes) {
    if (ax < 0 || ax >= kAxisCount) {
      throw std::invalid_argument("down axis must be a tofu::Axis (0..5)");
    }
    down_axis_mask_ |= 1ULL << ax;
  }
  for (const int r : plan_.crashed_ranks) {
    if (r < 0) throw std::invalid_argument("crashed rank must be >= 0");
  }
}

void FaultInjector::map_procs(int nprocs) {
  if (!plan_.permanent_faults() || nprocs < 1) return;
  // Same default allocation the job itself would get: a near-cubic cell
  // block with proc i on node i.
  const Topology topo = Topology::for_nodes(nprocs);
  proc_coords_.clear();
  proc_coords_.reserve(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    proc_coords_.push_back(topo.coord_of(p));
  }
}

bool FaultInjector::crashed(int proc) const {
  return std::find(plan_.crashed_ranks.begin(), plan_.crashed_ranks.end(),
                   proc) != plan_.crashed_ranks.end();
}

bool FaultInjector::unreachable(int src_proc, int dst_proc) const {
  if (!plan_.permanent_faults() || src_proc == dst_proc) return false;
  if (stats_.fabric_puts.load(std::memory_order_relaxed) <=
      plan_.fault_onset_puts) {
    return false;  // the link has not died yet
  }
  if (crashed(src_proc) || crashed(dst_proc)) return true;
  if (down_axis_mask_ != 0 &&
      static_cast<std::size_t>(src_proc) < proc_coords_.size() &&
      static_cast<std::size_t>(dst_proc) < proc_coords_.size()) {
    const TofuCoord& a = proc_coords_[static_cast<std::size_t>(src_proc)];
    const TofuCoord& b = proc_coords_[static_cast<std::size_t>(dst_proc)];
    for (int ax = 0; ax < kAxisCount; ++ax) {
      if (((down_axis_mask_ >> ax) & 1u) != 0 && a.v[ax] != b.v[ax]) {
        return true;  // the route must traverse a severed axis
      }
    }
  }
  return false;
}

std::string FaultInjector::unreachable_reason(int src_proc,
                                              int dst_proc) const {
  std::ostringstream os;
  os << "route rank " << src_proc << " -> rank " << dst_proc
     << " unreachable:";
  if (crashed(src_proc)) os << " rank " << src_proc << " crashed (NIC lost);";
  if (crashed(dst_proc)) os << " rank " << dst_proc << " crashed (NIC lost);";
  if (down_axis_mask_ != 0 &&
      static_cast<std::size_t>(src_proc) < proc_coords_.size() &&
      static_cast<std::size_t>(dst_proc) < proc_coords_.size()) {
    const TofuCoord& a = proc_coords_[static_cast<std::size_t>(src_proc)];
    const TofuCoord& b = proc_coords_[static_cast<std::size_t>(dst_proc)];
    for (int ax = 0; ax < kAxisCount; ++ax) {
      if (((down_axis_mask_ >> ax) & 1u) != 0 && a.v[ax] != b.v[ax]) {
        os << " link down on axis " << kAxisNames[ax] << ";";
      }
    }
  }
  os << " after "
     << stats_.fabric_puts.load(std::memory_order_relaxed) << " fabric puts";
  return os.str();
}

FaultDecision FaultInjector::decide(int src_proc, int dst_proc,
                                    std::uint64_t edata) const {
  FaultDecision d;
  if (!plan_.message_faults()) return d;
  stats_.decisions.fetch_add(1, std::memory_order_relaxed);

  std::uint64_t h = mix(plan_.seed);
  h = mix(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_proc))
               << 32 |
               static_cast<std::uint32_t>(dst_proc)));
  h = mix(h ^ edata);

  if (to_unit(mix(h + 1)) < plan_.drop_rate) {
    d.drop = true;
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  if (to_unit(mix(h + 2)) < plan_.delay_rate) {
    d.delay_polls = 1 + static_cast<int>(
        mix(h + 3) % static_cast<std::uint64_t>(plan_.max_delay_polls));
    stats_.delayed.fetch_add(1, std::memory_order_relaxed);
  }
  if (to_unit(mix(h + 4)) < plan_.duplicate_rate) {
    d.duplicate = true;
    stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
  }
  if (to_unit(mix(h + 5)) < plan_.corrupt_rate) {
    d.corrupt = true;
    d.corrupt_pos = mix(h + 6);
    stats_.corrupted.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

MemFaultInjector::MemFaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  if (plan_.mem_flip_rate < 0.0 || plan_.mem_flip_rate > 1.0) {
    throw std::invalid_argument("mem_flip_rate must be in [0, 1]");
  }
  if (plan_.mem_flip_onset_step < 0) {
    throw std::invalid_argument("mem_flip_onset_step must be >= 0");
  }
  for (const MemFault& f : plan_.mem_faults) {
    if (f.step < 0) throw std::invalid_argument("mem fault step must be >= 0");
    if (f.bit < 0 || f.bit > 63) {
      throw std::invalid_argument("mem fault bit must be in [0, 63]");
    }
    if (f.target < 0 || f.target > static_cast<int>(MemTarget::kGhostPos)) {
      throw std::invalid_argument("mem fault target must be a MemTarget");
    }
  }
  applied_.assign(plan_.mem_faults.size(), 0);
}

int MemFaultInjector::apply(int rank, int step, MemTarget target, double* data,
                            std::size_t nwords) {
  if (nwords == 0 || data == nullptr) return 0;
  int applied = 0;
  const auto flip = [&](std::size_t word, int bit) {
    std::uint64_t v = std::bit_cast<std::uint64_t>(data[word]);
    v ^= 1ULL << (bit & 63);
    data[word] = std::bit_cast<double>(v);
    ++applied;
    stats_.flips_injected.fetch_add(1, std::memory_order_relaxed);
  };

  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < plan_.mem_faults.size(); ++i) {
    const MemFault& f = plan_.mem_faults[i];
    if (f.step != step || f.target != static_cast<int>(target)) continue;
    if (f.rank >= 0 && f.rank != rank) continue;
    if (!f.persistent && applied_[i]) {
      stats_.flips_suppressed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    flip(static_cast<std::size_t>(f.word % nwords), f.bit);
    applied_[i] = 1;
  }

  if (plan_.mem_flip_rate > 0 && step > plan_.mem_flip_onset_step) {
    // Pure hash of (seed, rank, step, slab): the same chaos plan flips
    // the same words in every run. Restricted to high exponent bits so
    // every flip is a physics-visible explosion the guards must catch —
    // a mantissa-tail flip would "pass" trivially and test nothing.
    std::uint64_t h = mix(plan_.seed ^ 0x6d656d666c6970ULL);  // "memflip"
    h = mix(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank))
                 << 32 |
                 static_cast<std::uint32_t>(step)));
    h = mix(h ^ static_cast<std::uint64_t>(target));
    if (to_unit(mix(h + 1)) < plan_.mem_flip_rate && fired_.insert(h).second) {
      flip(static_cast<std::size_t>(mix(h + 2) % nwords),
           56 + static_cast<int>(mix(h + 3) % 7));  // bits 56..62
    }
  }
  return applied;
}

}  // namespace lmp::tofu
