#pragma once

#include <vector>

#include "md/potential.h"

namespace lmp::md {

/// Lennard-Jones 12-6 pair potential with a sharp cutoff (LAMMPS
/// `pair_style lj/cut`), single atom type — the paper's first workload
/// (sigma = epsilon = 1, cutoff 2.5, Table 2).
class LennardJones final : public Potential {
 public:
  LennardJones(double epsilon, double sigma, double cutoff);

  ForceResult compute(Atoms& atoms, const NeighborList& list, bool newton,
                      GhostDataComm* ghost_comm) override;

  double cutoff() const override { return cutoff_; }

  /// Analytic pair energy/force magnitude (for tests).
  double pair_energy(double r) const;
  double pair_force_over_r(double r) const;

  // Staged split evaluation: one force pass over per-group buffers,
  // reduced canonically in split_join(0). See Potential for the contract.
  int split_passes() const override { return 1; }
  void split_begin(Atoms& atoms, const NeighborList& list, bool newton,
                   const ForceGroups* groups) override;
  void split_group(int pass, int g) override;
  void split_join(int pass, GhostDataComm* ghost_comm) override;
  ForceResult split_finish() override;

 private:
  /// The force loop over a row range, accumulating into `f`: every local
  /// row into atoms.f() in compute(), one group's rows into its private
  /// buffer in the split path. One body for both, so a single all-atom
  /// group reproduces the monolithic forces bitwise.
  template <class Rows>
  void force_rows(const Rows& rows, const double* x, double* f,
                  const NeighborList& list, bool newton, int nlocal,
                  ForceResult& out) const;

  double epsilon_;
  double sigma_;
  double cutoff_;
  double cut2_;
  double lj1_, lj2_, lj3_, lj4_;  // precomputed coefficient products

  // Split-evaluation state (bound by split_begin, valid for one step).
  Atoms* satoms_ = nullptr;
  const NeighborList* slist_ = nullptr;
  const ForceGroups* sgroups_ = nullptr;
  bool snewton_ = true;
  /// Per group, 3*ntotal; all-zero between evaluations (the join
  /// re-zeroes every footprint entry it drains).
  std::vector<std::vector<double>> gforce_;
  std::vector<ForceResult> gpartial_;
  ForceResult stotal_;
  bool clean_ = true;  ///< gforce_ all-zero (last join completed)
};

}  // namespace lmp::md
