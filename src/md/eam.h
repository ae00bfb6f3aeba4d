#pragma once

#include <vector>

#include "md/eam_table.h"
#include "md/potential.h"
#include "md/spline.h"

namespace lmp::md {

/// Embedded-atom-method potential over a funcfl table (LAMMPS
/// `pair_style eam` with `Cu_u3.eam`-style input) — the paper's second
/// workload.
///
///   E = sum_i F(rho_i) + 1/2 sum_{i != j} phi(r_ij),
///   rho_i = sum_j rho(r_ij)
///
/// Evaluation is the two-pass LAMMPS flow. With Newton's law on, ghost
/// atoms accumulate partial densities that must be *reverse-added* to
/// their owners, and the embedding derivative fp = F'(rho) must then be
/// *forwarded* back out to the ghosts — the "two additional
/// communications during the pair stage" the paper measures for EAM.
class Eam final : public Potential {
 public:
  explicit Eam(const EamTable& table);

  ForceResult compute(Atoms& atoms, const NeighborList& list, bool newton,
                      GhostDataComm* ghost_comm) override;

  double cutoff() const override { return cutoff_; }

  /// Tabulated functions (exposed for tests).
  double rho_of_r(double r) const { return rhor_.value(r); }
  double phi_of_r(double r) const { return z2r_.value(r) / r; }
  double embed(double rho) const { return frho_.value(rho); }

  /// Scratch sized on first compute; exposed so tests can inspect the
  /// densities of the last evaluation.
  const std::vector<double>& last_rho() const { return rho_; }

  // Staged split evaluation: pass 0 accumulates per-group densities,
  // split_join(0) reduces them canonically and runs the two mid-pair
  // communications (rho reverse-add, fp forward) plus the embedding
  // term; pass 1 accumulates per-group forces reading the shared fp.
  int split_passes() const override { return 2; }
  void split_begin(Atoms& atoms, const NeighborList& list, bool newton,
                   const ForceGroups* groups) override;
  void split_group(int pass, int g) override;
  void split_join(int pass, GhostDataComm* ghost_comm) override;
  ForceResult split_finish() override;

 private:
  /// The mid-pair section: reverse-add ghost densities to their owners
  /// (Newton on), add each local atom's embedding energy to `energy` and
  /// store fp = F'(rho), then forward fp to the ghosts.
  void mid_pair(int nlocal, bool newton, GhostDataComm* ghost_comm,
                double& energy);
  /// The density pass over a row range (every local row in compute(),
  /// one group's rows into its private buffer in the split path).
  template <class Rows>
  void rho_rows(const Rows& rows, const double* x, double* rho,
                const NeighborList& list, bool newton, int nlocal) const;
  /// The force pass over a row range, reading the shared fp_. Energy and
  /// virial continue the sums already in `out`.
  template <class Rows>
  void force_rows(const Rows& rows, const double* x, double* f,
                  const NeighborList& list, bool newton, int nlocal,
                  ForceResult& out) const;

  double cutoff_;
  double cut2_;
  UniformSpline frho_;
  UniformSpline rhor_;  ///< on the same grid as z2r_ (checked at construction)
  UniformSpline z2r_;
  std::vector<double> rho_;
  std::vector<double> fp_;

  // Split-evaluation state (bound by split_begin, valid for one step).
  Atoms* satoms_ = nullptr;
  const NeighborList* slist_ = nullptr;
  const ForceGroups* sgroups_ = nullptr;
  bool snewton_ = true;
  // Per-group buffers are all-zero between evaluations: the joins
  // re-zero every footprint entry they drain.
  std::vector<std::vector<double>> grho_;    ///< per group, ntotal
  std::vector<std::vector<double>> gforce_;  ///< per group, 3*ntotal
  std::vector<ForceResult> gpartial_;
  ForceResult stotal_;
  bool clean_ = true;  ///< group buffers all-zero (last final join ran)
};

}  // namespace lmp::md
