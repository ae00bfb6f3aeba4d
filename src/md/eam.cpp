#include "md/eam.h"

#include <algorithm>
#include <cmath>
#include <ranges>
#include <stdexcept>

namespace lmp::md {

Eam::Eam(const EamTable& t)
    : cutoff_(t.cutoff),
      cut2_(t.cutoff * t.cutoff),
      frho_(0.0, t.drho, t.frho),
      rhor_(t.dr, t.dr, t.rhor),
      z2r_(t.dr, t.dr, t.z2r) {
  if (t.cutoff <= 0) throw std::invalid_argument("EAM cutoff must be > 0");
  if (!rhor_.same_grid(z2r_)) {
    throw std::invalid_argument("EAM rhor and z2r must share one r grid");
  }
}

ForceResult Eam::compute(Atoms& atoms, const NeighborList& list, bool newton,
                         GhostDataComm* ghost_comm) {
  const int nlocal = atoms.nlocal();
  const auto n = static_cast<std::size_t>(atoms.ntotal());
  const auto rows = std::views::iota(0, nlocal);
  ForceResult out;

  rho_.assign(n, 0.0);
  fp_.assign(n, 0.0);
  rho_rows(rows, atoms.x(), rho_.data(), list, newton, nlocal);
  mid_pair(nlocal, newton, ghost_comm, out.energy);
  // The force pass continues the sum the embedding energy started.
  force_rows(rows, atoms.x(), atoms.f(), list, newton, nlocal, out);
  return out;
}

void Eam::mid_pair(int nlocal, bool newton, GhostDataComm* ghost_comm,
                   double& energy) {
  // Mid-pair communication #1: ghost density contributions -> owners.
  if (newton && ghost_comm != nullptr) {
    ghost_comm->reverse_add(rho_.data());
  }
  for (int i = 0; i < nlocal; ++i) {
    double emb, deriv;
    frho_.eval(rho_[static_cast<std::size_t>(i)], emb, deriv);
    energy += emb;
    fp_[static_cast<std::size_t>(i)] = deriv;
  }
  // Mid-pair communication #2: fp of owners -> their ghost copies.
  if (ghost_comm != nullptr) {
    ghost_comm->forward(fp_.data());
  }
}

template <class Rows>
void Eam::rho_rows(const Rows& rows, const double* x, double* rho,
                   const NeighborList& list, bool newton, int nlocal) const {
  for (const int i : rows) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    // A row never lists i itself, so rho[i] is written by no partner
    // while the row runs: summing in a local is the same sequence of adds.
    double rhoi = rho[i];
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = xi - x[3 * j];
      const double dy = yi - x[3 * j + 1];
      const double dz = zi - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double rho_r = rhor_.value(std::sqrt(r2));
      rhoi += rho_r;
      if (!list.full && (newton || j < nlocal)) {
        rho[j] += rho_r;
      }
    }
    rho[i] = rhoi;
  }
}

template <class Rows>
void Eam::force_rows(const Rows& rows, const double* x, double* f,
                     const NeighborList& list, bool newton, int nlocal,
                     ForceResult& out) const {
  const double pair_weight = list.full ? 0.5 : 1.0;
  const double* fp = fp_.data();
  // The compiler must assume `f` may alias `out`, which would force a
  // store and reload of out.energy/out.virial per pair; locals seeded
  // from `out` add the same terms in the same order, written back once.
  double energy = out.energy;
  double virial = out.virial;
  for (const int i : rows) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    const double fpi = fp[i];
    double fxi = 0, fyi = 0, fzi = 0;
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = xi - x[3 * j];
      const double dy = yi - x[3 * j + 1];
      const double dz = zi - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double r = std::sqrt(r2);

      // rho(r) and z2(r) share the funcfl r grid: one segment serves both.
      double t;
      const int seg = rhor_.segment(r, t);
      double rho_r, rhop;  // rho_r is dead once inlined: only rho' is read
      rhor_.eval_at(seg, t, rho_r, rhop);
      double z2, z2p;
      z2r_.eval_at(seg, t, z2, z2p);
      const double recip = 1.0 / r;
      const double phi = z2 * recip;
      const double phip = z2p * recip - phi * recip;

      const double psip = fpi * rhop + fp[j] * rhop + phip;
      const double fpair = -psip * recip;

      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      if (!list.full && (newton || j < nlocal)) {
        f[3 * j] -= dx * fpair;
        f[3 * j + 1] -= dy * fpair;
        f[3 * j + 2] -= dz * fpair;
      }
      energy += pair_weight * phi;
      virial += pair_weight * r2 * fpair;
    }
    f[3 * i] += fxi;
    f[3 * i + 1] += fyi;
    f[3 * i + 2] += fzi;
  }
  out.energy = energy;
  out.virial = virial;
}

void Eam::split_begin(Atoms& atoms, const NeighborList& list, bool newton,
                      const ForceGroups* groups) {
  if (groups == nullptr) {
    throw std::invalid_argument("EAM split_begin: null ForceGroups");
  }
  if (!groups->footprints_match(list, newton, atoms.ntotal())) {
    throw std::invalid_argument(
        "EAM split_begin: ForceGroups footprints not built for this list");
  }
  satoms_ = &atoms;
  slist_ = &list;
  sgroups_ = groups;
  snewton_ = newton;
  stotal_ = {};
  const auto ng = static_cast<std::size_t>(groups->ngroups());
  const auto n = static_cast<std::size_t>(atoms.ntotal());
  rho_.assign(n, 0.0);
  fp_.assign(n, 0.0);
  // The joins leave every group buffer all-zero, so this only resizes
  // (growth value-initializes to 0.0) — unless the last evaluation was
  // abandoned before its final join, leaving the groups that ran dirty.
  if (!clean_) {
    for (auto& buf : grho_) std::fill(buf.begin(), buf.end(), 0.0);
    for (auto& buf : gforce_) std::fill(buf.begin(), buf.end(), 0.0);
  }
  clean_ = false;
  grho_.resize(ng);
  gforce_.resize(ng);
  gpartial_.assign(ng, {});
  // reserve() first: exact growth, where resize() alone would double.
  for (auto& buf : grho_) {
    buf.reserve(n);
    buf.resize(n);
  }
  for (auto& buf : gforce_) {
    buf.reserve(3 * n);
    buf.resize(3 * n);
  }
}

void Eam::split_group(int pass, int g) {
  const auto gi = static_cast<std::size_t>(g);
  const auto& rows = sgroups_->groups[gi].atoms;
  if (pass == 0) {
    rho_rows(rows, satoms_->x(), grho_[gi].data(), *slist_, snewton_,
             satoms_->nlocal());
  } else if (pass == 1) {
    force_rows(rows, satoms_->x(), gforce_[gi].data(), *slist_, snewton_,
               satoms_->nlocal(), gpartial_[gi]);
  } else {
    throw std::logic_error("EAM split: pass out of range");
  }
}

void Eam::split_join(int pass, GhostDataComm* ghost_comm) {
  if (pass == 0) {
    // Canonical density reduction, then compute()'s mid-section (the
    // two mid-pair comms and the embedding term), with rho summed
    // group-by-group in ascending mask order, each group over its
    // footprint (re-zeroing as it goes).
    for (std::size_t gi = 0; gi < grho_.size(); ++gi) {
      drain_footprint<1>(sgroups_->footprint(static_cast<int>(gi)),
                         grho_[gi].data(), rho_.data());
    }
    mid_pair(satoms_->nlocal(), snewton_, ghost_comm, stotal_.energy);
  } else if (pass == 1) {
    double* f = satoms_->f();
    for (std::size_t gi = 0; gi < gforce_.size(); ++gi) {
      drain_footprint<3>(sgroups_->footprint(static_cast<int>(gi)),
                         gforce_[gi].data(), f);
      stotal_.energy += gpartial_[gi].energy;
      stotal_.virial += gpartial_[gi].virial;
    }
    clean_ = true;
  } else {
    throw std::logic_error("EAM split: pass out of range");
  }
}

ForceResult Eam::split_finish() { return stotal_; }

}  // namespace lmp::md
