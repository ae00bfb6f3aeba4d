#include "md/eam.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace lmp::md {

Eam::Eam(const EamTable& t)
    : cutoff_(t.cutoff),
      cut2_(t.cutoff * t.cutoff),
      frho_(0.0, t.drho, t.frho),
      rhor_(t.dr, t.dr, t.rhor),
      z2r_(t.dr, t.dr, t.z2r) {
  if (t.cutoff <= 0) throw std::invalid_argument("EAM cutoff must be > 0");
}

ForceResult Eam::compute(Atoms& atoms, const NeighborList& list, bool newton,
                         GhostDataComm* ghost_comm) {
  const int nlocal = atoms.nlocal();
  const int ntotal = atoms.ntotal();
  const double* x = atoms.x();
  double* f = atoms.f();
  ForceResult out;

  rho_.assign(static_cast<std::size_t>(ntotal), 0.0);
  fp_.assign(static_cast<std::size_t>(ntotal), 0.0);

  // ---- pass 1: electron density ------------------------------------
  for (int i = 0; i < nlocal; ++i) {
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = x[3 * i] - x[3 * j];
      const double dy = x[3 * i + 1] - x[3 * j + 1];
      const double dz = x[3 * i + 2] - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double r = std::sqrt(r2);
      const double rho_r = rhor_.value(r);
      rho_[static_cast<std::size_t>(i)] += rho_r;
      if (!list.full && (newton || j < nlocal)) {
        rho_[static_cast<std::size_t>(j)] += rho_r;
      }
    }
  }

  // Mid-pair communication #1: ghost density contributions -> owners.
  if (newton && ghost_comm != nullptr) {
    ghost_comm->reverse_add(rho_.data());
  }

  // ---- embedding energy and its derivative --------------------------
  for (int i = 0; i < nlocal; ++i) {
    double emb, deriv;
    frho_.eval(rho_[static_cast<std::size_t>(i)], emb, deriv);
    out.energy += emb;
    fp_[static_cast<std::size_t>(i)] = deriv;
  }

  // Mid-pair communication #2: fp of owners -> their ghost copies.
  if (ghost_comm != nullptr) {
    ghost_comm->forward(fp_.data());
  }

  // ---- pass 2: forces -------------------------------------------------
  const double pair_weight = list.full ? 0.5 : 1.0;
  for (int i = 0; i < nlocal; ++i) {
    double fxi = 0, fyi = 0, fzi = 0;
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = x[3 * i] - x[3 * j];
      const double dy = x[3 * i + 1] - x[3 * j + 1];
      const double dz = x[3 * i + 2] - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double r = std::sqrt(r2);

      double rho_r, rhop;
      rhor_.eval(r, rho_r, rhop);
      double z2, z2p;
      z2r_.eval(r, z2, z2p);
      const double recip = 1.0 / r;
      const double phi = z2 * recip;
      const double phip = z2p * recip - phi * recip;

      const double psip = fp_[static_cast<std::size_t>(i)] * rhop +
                          fp_[static_cast<std::size_t>(j)] * rhop + phip;
      const double fpair = -psip * recip;

      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      if (!list.full && (newton || j < nlocal)) {
        f[3 * j] -= dx * fpair;
        f[3 * j + 1] -= dy * fpair;
        f[3 * j + 2] -= dz * fpair;
      }
      out.energy += pair_weight * phi;
      out.virial += pair_weight * r2 * fpair;
    }
    f[3 * i] += fxi;
    f[3 * i + 1] += fyi;
    f[3 * i + 2] += fzi;
  }
  return out;
}

void Eam::rho_rows(const std::vector<int>& rows, const double* x, double* rho,
                   const NeighborList& list, bool newton, int nlocal) const {
  for (const int i : rows) {
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = x[3 * i] - x[3 * j];
      const double dy = x[3 * i + 1] - x[3 * j + 1];
      const double dz = x[3 * i + 2] - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double r = std::sqrt(r2);
      const double rho_r = rhor_.value(r);
      rho[i] += rho_r;
      if (!list.full && (newton || j < nlocal)) {
        rho[j] += rho_r;
      }
    }
  }
}

void Eam::force_rows(const std::vector<int>& rows, const double* x, double* f,
                     const NeighborList& list, bool newton, int nlocal,
                     ForceResult& out) const {
  const double pair_weight = list.full ? 0.5 : 1.0;
  for (const int i : rows) {
    double fxi = 0, fyi = 0, fzi = 0;
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = x[3 * i] - x[3 * j];
      const double dy = x[3 * i + 1] - x[3 * j + 1];
      const double dz = x[3 * i + 2] - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double r = std::sqrt(r2);

      double rho_r, rhop;
      rhor_.eval(r, rho_r, rhop);
      double z2, z2p;
      z2r_.eval(r, z2, z2p);
      const double recip = 1.0 / r;
      const double phi = z2 * recip;
      const double phip = z2p * recip - phi * recip;

      const double psip = fp_[static_cast<std::size_t>(i)] * rhop +
                          fp_[static_cast<std::size_t>(j)] * rhop + phip;
      const double fpair = -psip * recip;

      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      if (!list.full && (newton || j < nlocal)) {
        f[3 * j] -= dx * fpair;
        f[3 * j + 1] -= dy * fpair;
        f[3 * j + 2] -= dz * fpair;
      }
      out.energy += pair_weight * phi;
      out.virial += pair_weight * r2 * fpair;
    }
    f[3 * i] += fxi;
    f[3 * i + 1] += fyi;
    f[3 * i + 2] += fzi;
  }
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
    // Canonical density reduction, then the two mid-pair comms and the
    // embedding term — exactly the monolithic mid-section, with rho
    // summed group-by-group in ascending mask order, each group over
    // its footprint (re-zeroing as it goes).
    const int nlocal = satoms_->nlocal();
    for (std::size_t gi = 0; gi < grho_.size(); ++gi) {
      drain_footprint<1>(sgroups_->footprint(static_cast<int>(gi)),
                         grho_[gi].data(), rho_.data());
    }
    if (snewton_ && ghost_comm != nullptr) {
      ghost_comm->reverse_add(rho_.data());
    }
    for (int i = 0; i < nlocal; ++i) {
      double emb, deriv;
      frho_.eval(rho_[static_cast<std::size_t>(i)], emb, deriv);
      stotal_.energy += emb;
      fp_[static_cast<std::size_t>(i)] = deriv;
    }
    if (ghost_comm != nullptr) {
      ghost_comm->forward(fp_.data());
    }
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
