// Workload catalog, generated inputs, shared statistics and the output
// checks every workload applies.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.h"
#include "obs/alloc_tracker.h"

namespace lmp::bench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 50.0); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::int64_t start_heap_window() {
  obs::AllocTracker& t = obs::AllocTracker::instance();
  const std::int64_t live = t.totals().live_bytes;
  t.reset_counters();
  return live;
}

double peak_heap_mb(std::int64_t window_start) {
  const std::int64_t high = obs::AllocTracker::instance().totals().high_water_bytes;
  return static_cast<double>(window_start + high) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"lj-strong",
       "LJ melt, 864 atoms on 2x2x1 ranks, 6tni_p2p, barrier executor, "
       "newton on: the comm-bound strong-scaling limit",
       4},
      {"eam-overlap",
       "EAM Cu, 6912 atoms on 2x1x1 ranks, 6tni_p2p, async executor with "
       "2 DAG threads, check yes: compute-bound with overlap",
       4},
      {"serve-ckpt",
       "job server, 1 lane, 2 closed-loop tenants submitting 864-atom "
       "200-step utofu_3stage newton-off LJ jobs, checkpoint every slice",
       2},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t velocity_seed(std::uint64_t seed, int slot) {
  // splitmix64 of (seed, slot): distinct seeds and slots give unrelated
  // velocity fields, the same pair always the same one.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(slot + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return 1 + z % 999999;
}

namespace {

std::string lj_header(int cells, std::uint64_t vseed) {
  const std::string c = std::to_string(cells);
  return "units lj\n"
         "lattice fcc 0.8442\n"
         "region box block 0 " + c + " 0 " + c + " 0 " + c + "\n"
         "create_box 1 box\n"
         "create_atoms 1 box\n"
         "mass 1 1.0\n"
         "velocity all create 1.44 " + std::to_string(vseed) + "\n"
         "pair_style lj/cut 2.5\n"
         "pair_coeff 1 1 1.0 1.0\n"
         "neighbor 0.3 bin\n"
         "neigh_modify every 20 check no\n"
         "fix 1 all nve\n"
         "timestep 0.005\n";
}

}  // namespace

std::string workload_script(const std::string& workload, std::uint64_t seed,
                            int slot, int steps) {
  const std::uint64_t vseed = velocity_seed(seed, slot);
  const auto run = [steps](int dflt) {
    return "run " + std::to_string(steps > 0 ? steps : dflt) + "\n";
  };
  if (workload == "lj-strong") {
    return lj_header(6, vseed) +
           "newton on\n"
           "thermo 100\n"
           "processors 2 2 1\n"
           "comm_variant 6tni_p2p\n"
           "executor barrier\n" +
           run(1000);
  }
  if (workload == "eam-overlap") {
    return "units metal\n"
           "lattice fcc 3.615\n"
           "region box block 0 12 0 12 0 12\n"
           "create_box 1 box\n"
           "create_atoms 1 box\n"
           "mass 1 63.550\n"
           "velocity all create 800.0 " + std::to_string(vseed) + "\n"
           "pair_style eam\n"
           "pair_coeff * * Cu_u3.eam\n"
           "neighbor 1.0 bin\n"
           "neigh_modify every 5 check yes\n"
           "newton on\n"
           "fix 1 all nve\n"
           "timestep 0.005\n"
           "thermo 10\n"
           "processors 2 1 1\n"
           "comm_variant 6tni_p2p\n"
           "executor async 2\n" +
           run(200);
  }
  if (workload == "serve-ckpt") {
    return lj_header(6, vseed) +
           "newton off\n"
           "thermo 10\n"
           "processors 2 1 1\n"
           "comm_variant utofu_3stage\n" +
           run(200);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

double energy_drift(const std::vector<sim::ThermoSample>& thermo) {
  if (thermo.empty()) return 0.0;
  const double e0 = thermo.front().state.total();
  double worst = 0.0;
  for (const sim::ThermoSample& s : thermo) {
    const double d = std::abs(s.state.total() - e0) / std::abs(e0);
    // NaN must fail the bound, so propagate it instead of max()ing it away.
    if (!(d <= worst)) worst = d;
  }
  return worst;
}

bool same_atoms(const std::vector<sim::AtomState>& a,
                const std::vector<sim::AtomState>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "atom count " + std::to_string(a.size()) + " vs reference " +
           std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool same =
        a[i].tag == b[i].tag &&
        std::memcmp(&a[i].pos, &b[i].pos, sizeof a[i].pos) == 0 &&
        std::memcmp(&a[i].vel, &b[i].vel, sizeof a[i].vel) == 0;
    if (!same) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "atom tag %lld differs from the reference (x %.17g vs %.17g)",
                    static_cast<long long>(a[i].tag), a[i].pos.x, b[i].pos.x);
      *why = buf;
      return false;
    }
  }
  return true;
}

void perturb(std::vector<sim::AtomState>& atoms) {
  double& x = atoms[atoms.size() / 2].pos.x;
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof bits);
}

std::string atom_dump_text(const std::vector<sim::AtomState>& atoms) {
  std::string out;
  char line[256];
  for (const sim::AtomState& a : atoms) {
    std::snprintf(line, sizeof line, "%lld %.17g %.17g %.17g %.17g %.17g %.17g\n",
                  static_cast<long long>(a.tag), a.pos.x, a.pos.y, a.pos.z,
                  a.vel.x, a.vel.y, a.vel.z);
    out += line;
  }
  return out;
}

std::string thermo_text(const std::vector<sim::ThermoSample>& thermo) {
  std::string out;
  char line[256];
  for (const sim::ThermoSample& s : thermo) {
    std::snprintf(line, sizeof line, "%d %.17g %.17g %.17g %.17g\n", s.step,
                  s.state.temperature, s.state.pressure, s.state.kinetic,
                  s.state.potential);
    out += line;
  }
  return out;
}

}  // namespace lmp::bench
