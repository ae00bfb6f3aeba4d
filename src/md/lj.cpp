#include "md/lj.h"

#include <algorithm>
#include <ranges>
#include <stdexcept>

namespace lmp::md {

LennardJones::LennardJones(double epsilon, double sigma, double cutoff)
    : epsilon_(epsilon), sigma_(sigma), cutoff_(cutoff), cut2_(cutoff * cutoff) {
  if (epsilon <= 0 || sigma <= 0 || cutoff <= 0) {
    throw std::invalid_argument("LJ parameters must be positive");
  }
  const double s6 = sigma * sigma * sigma * sigma * sigma * sigma;
  // Same coefficient grouping as LAMMPS pair_lj_cut:
  //   fpair = (lj1/r^12 - lj2/r^6) / r^2,  e = lj3/r^12 - lj4/r^6
  lj1_ = 48.0 * epsilon * s6 * s6;
  lj2_ = 24.0 * epsilon * s6;
  lj3_ = 4.0 * epsilon * s6 * s6;
  lj4_ = 4.0 * epsilon * s6;
}

double LennardJones::pair_energy(double r) const {
  const double r2 = r * r;
  const double inv6 = 1.0 / (r2 * r2 * r2);
  return lj3_ * inv6 * inv6 - lj4_ * inv6;
}

double LennardJones::pair_force_over_r(double r) const {
  const double r2 = r * r;
  const double inv2 = 1.0 / r2;
  const double inv6 = inv2 * inv2 * inv2;
  return (lj1_ * inv6 * inv6 - lj2_ * inv6) * inv2;
}

ForceResult LennardJones::compute(Atoms& atoms, const NeighborList& list,
                                  bool newton, GhostDataComm*) {
  ForceResult out;
  force_rows(std::views::iota(0, atoms.nlocal()), atoms.x(), atoms.f(), list,
             newton, atoms.nlocal(), out);
  return out;
}

template <class Rows>
void LennardJones::force_rows(const Rows& rows, const double* x, double* f,
                              const NeighborList& list, bool newton,
                              int nlocal, ForceResult& out) const {
  // Half list with newton: apply to both partners (ghost forces are
  // reverse-communicated by the caller). Full list without newton:
  // i-side only, 0.5-weighted tallies.
  const double pair_weight = list.full ? 0.5 : 1.0;
  for (const int i : rows) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    double fxi = 0, fyi = 0, fzi = 0;
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = xi - x[3 * j];
      const double dy = yi - x[3 * j + 1];
      const double dz = zi - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double inv2 = 1.0 / r2;
      const double inv6 = inv2 * inv2 * inv2;
      const double fpair = (lj1_ * inv6 * inv6 - lj2_ * inv6) * inv2;
      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      if (!list.full && (newton || j < nlocal)) {
        f[3 * j] -= dx * fpair;
        f[3 * j + 1] -= dy * fpair;
        f[3 * j + 2] -= dz * fpair;
      }
      out.energy += pair_weight * (lj3_ * inv6 * inv6 - lj4_ * inv6);
      out.virial += pair_weight * r2 * fpair;
    }
    f[3 * i] += fxi;
    f[3 * i + 1] += fyi;
    f[3 * i + 2] += fzi;
  }
}

void LennardJones::split_begin(Atoms& atoms, const NeighborList& list,
                               bool newton, const ForceGroups* groups) {
  if (groups == nullptr) {
    throw std::invalid_argument("LJ split_begin: null ForceGroups");
  }
  if (!groups->footprints_match(list, newton, atoms.ntotal())) {
    throw std::invalid_argument(
        "LJ split_begin: ForceGroups footprints not built for this list");
  }
  satoms_ = &atoms;
  slist_ = &list;
  sgroups_ = groups;
  snewton_ = newton;
  stotal_ = {};
  // The join leaves every buffer all-zero, so this only resizes (growth
  // value-initializes to 0.0) — unless the last evaluation was abandoned
  // before its join, leaving the groups that ran dirty.
  if (!clean_) {
    for (auto& buf : gforce_) std::fill(buf.begin(), buf.end(), 0.0);
  }
  clean_ = false;
  const auto ng = static_cast<std::size_t>(groups->ngroups());
  const auto n3 = static_cast<std::size_t>(3) * atoms.ntotal();
  gforce_.resize(ng);
  gpartial_.assign(ng, {});
  for (auto& buf : gforce_) {
    buf.reserve(n3);  // exact growth: resize() alone would double capacity
    buf.resize(n3);
  }
}

void LennardJones::split_group(int pass, int g) {
  if (pass != 0) throw std::logic_error("LJ split: pass out of range");
  const auto gi = static_cast<std::size_t>(g);
  force_rows(sgroups_->groups[gi].atoms, satoms_->x(), gforce_[gi].data(),
             *slist_, snewton_, satoms_->nlocal(), gpartial_[gi]);
}

void LennardJones::split_join(int pass, GhostDataComm*) {
  if (pass != 0) throw std::logic_error("LJ split: pass out of range");
  // Canonical reduction: groups in ascending mask order, each over its
  // footprint (the only entries it wrote), re-zeroing as it goes. This
  // fixed order is the whole determinism argument — it never depends on
  // which worker finished first.
  double* f = satoms_->f();
  for (std::size_t gi = 0; gi < gforce_.size(); ++gi) {
    drain_footprint<3>(sgroups_->footprint(static_cast<int>(gi)),
                       gforce_[gi].data(), f);
    stotal_.energy += gpartial_[gi].energy;
    stotal_.virial += gpartial_[gi].virial;
  }
  clean_ = true;
}

ForceResult LennardJones::split_finish() { return stotal_; }

}  // namespace lmp::md
