#include "perf/stepmodel.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "geom/ghost_algebra.h"

namespace lmp::perf {

Workload Workload::lj(double natoms, long nodes) {
  Workload w;
  w.pot = PotKind::kLj;
  w.natoms = natoms;
  w.nodes = nodes;
  w.cutoff = 2.5;
  w.skin = 0.3;
  w.density = 0.8442;
  w.dt = 0.005;
  w.neigh_every = 20;
  w.neigh_check = false;
  return w;
}

Workload Workload::eam(double natoms, long nodes) {
  Workload w;
  w.pot = PotKind::kEam;
  w.natoms = natoms;
  w.nodes = nodes;
  w.cutoff = 4.95;
  w.skin = 1.0;
  // fcc copper: 4 atoms / (3.615 A)^3.
  w.density = 4.0 / (3.615 * 3.615 * 3.615);
  w.dt = 0.005;
  w.neigh_every = 5;
  w.neigh_check = true;
  return w;
}

long Workload::ranks() const { return nodes * 4; }

double Workload::atoms_per_rank() const {
  return natoms / static_cast<double>(ranks());
}

double Workload::sub_box_side() const {
  return std::cbrt(atoms_per_rank() / density);
}

std::vector<MsgSpec> StepModel::ghost_messages(const Workload& w,
                                               PatternKind pattern,
                                               double bytes_per_atom) const {
  const geom::GhostAlgebra alg{w.sub_box_side(), w.cutoff + w.skin};
  std::vector<MsgSpec> msgs;
  if (pattern == PatternKind::kThreeStage) {
    // Each entry becomes one barrier-separated sub-stage in the exchange
    // schedule; with two shells the chained hop serializes into an extra
    // sub-stage per dimension.
    for (const auto& c : alg.three_stage(w.shells)) {
      for (int s = 0; s < w.shells; ++s) {
        msgs.push_back({geom::GhostAlgebra::bytes(
                            geom::GhostAlgebra::atoms(c.volume, w.density),
                            bytes_per_atom),
                        c.hops, c.count / w.shells});
      }
    }
  } else {
    for (const auto& c : alg.p2p(w.newton, w.shells)) {
      msgs.push_back({geom::GhostAlgebra::bytes(
                          geom::GhostAlgebra::atoms(c.volume, w.density),
                          bytes_per_atom),
                      c.hops, c.count});
    }
  }
  return msgs;
}

double StepModel::exchange_once(const Workload& w, const CommConfig& cfg,
                                double bytes_per_atom) const {
  const std::vector<MsgSpec> msgs =
      ghost_messages(w, cfg.pattern, bytes_per_atom);
  return net_.exchange_time(cfg, msgs);
}

double StepModel::comm_noise(long ranks) const {
  if (ranks <= 1) return 1.0;
  return 1.0 + cal_.comm_noise_per_level * std::log2(static_cast<double>(ranks));
}

double StepModel::pair_interaction_cost(PotKind pot) const {
  return pot == PotKind::kLj ? cal_.t_pair_lj : cal_.t_pair_eam;
}

StepBreakdown StepModel::step_time(const Workload& w,
                                   const CommConfig& cfg) const {
  if (w.nodes < 1 || w.natoms <= 0) throw std::invalid_argument("bad workload");
  const double n = w.atoms_per_rank();
  const double rc_n = w.cutoff + w.skin;
  const int threads = cal_.threads_per_rank;
  const double region =
      cfg.runtime == Runtime::kPool ? cal_.pool_region_overhead
                                    : cal_.omp_region_overhead;
  const long ranks = w.ranks();
  const double noise = cal_.t_noise_base * std::log2(std::max<double>(2, ranks));
  const double lambda = comm_noise(ranks);

  // Rebuild cadence: `check no` rebuilds exactly every N steps; `check
  // yes` rebuilds when displacements exceed half the skin, empirically a
  // few times the check interval.
  const double rebuild_freq =
      w.neigh_check ? 1.0 / (3.0 * w.neigh_every) : 1.0 / w.neigh_every;

  // Neighbor-list length per atom (half list), in the skin-extended
  // sphere.
  const double sphere =
      4.0 / 3.0 * std::numbers::pi * rc_n * rc_n * rc_n * w.density;
  const double list_len = (w.newton ? 0.5 : 1.0) * sphere;

  // Ghost count per rank = shell volume * density.
  const double a = w.sub_box_side();
  const double ghost_atoms =
      ((a + 2 * rc_n) * (a + 2 * rc_n) * (a + 2 * rc_n) - a * a * a) *
      w.density * (w.newton ? 0.5 : 1.0);

  StepBreakdown out;

  // ---- Pair --------------------------------------------------------
  const double pair_compute =
      n * list_len * pair_interaction_cost(w.pot) / threads +
      (n + ghost_atoms) * cal_.t_peratom_ghost;
  out.pair = cal_.regions_per_step_pair * region + pair_compute;
  if (w.pot == PotKind::kEam) {
    // The two mid-pair scalar exchanges (rho reverse-add + fp forward)
    // ride the same comm machinery and are charged to Pair (Sec. 4.3.1).
    out.pair += 2.0 * exchange_once(w, cfg, 8.0) * lambda;
  }

  // ---- Neigh -------------------------------------------------------
  const double cand_pairs = n * list_len * 2.7;  // bin-scan candidates
  out.neigh = rebuild_freq * (cand_pairs * cal_.t_neigh_pair / threads +
                              (n + ghost_atoms) * cal_.t_peratom_ghost);

  // ---- Comm --------------------------------------------------------
  const double forward = exchange_once(w, cfg, w.bytes_per_atom);
  const double reverse = w.newton ? forward : 0.0;
  // Border: heavier payload (position + tag) plus the offset piggyback
  // round; exchange: a thin migration message set.
  const double border = exchange_once(w, cfg, 32.0) +
                        (cfg.pattern == PatternKind::kP2p
                             ? net_.message_time(cfg.api, 8.0, 1)
                             : 0.0);
  const double migration = exchange_once(w, cfg, 56.0 * 0.05);
  out.comm =
      lambda * (forward + reverse + rebuild_freq * (border + migration));

  // ---- Modify ------------------------------------------------------
  out.modify = cal_.regions_per_step_modify * region +
               2.0 * n * cal_.t_peratom_modify / threads + 0.3 * noise;

  // ---- Other -------------------------------------------------------
  out.other = 5e-6 + noise;
  if (w.neigh_check) {
    // The `check yes` displacement allreduce fires every N steps.
    out.other += net_.allreduce_time(ranks) / w.neigh_every;
  }
  return out;
}

}  // namespace lmp::perf
