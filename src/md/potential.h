#pragma once

#include "md/atoms.h"
#include "md/force_split.h"
#include "md/neighbor.h"

namespace lmp::md {

/// This rank's share of global energy/virial sums (reduced by thermo).
struct ForceResult {
  double energy = 0.0;  ///< potential energy contribution
  double virial = 0.0;  ///< sum over pairs of r_ij . f_ij (scalar virial)
};

/// Mid-force-computation ghost communication, implemented by the comm
/// layer. The EAM potential needs two of these per step (paper Sec. 4):
/// a reverse-add of ghost electron densities and a forward copy of the
/// embedding-energy derivatives.
class GhostDataComm {
 public:
  virtual ~GhostDataComm() = default;

  /// Add each ghost atom's value into its owner's entry and zero the
  /// ghost entry. `per_atom` has `ntotal` entries.
  virtual void reverse_add(double* per_atom) = 0;

  /// Copy each owned atom's value to all its ghost copies on other ranks.
  virtual void forward(double* per_atom) = 0;
};

/// A pair-style potential. `newton` selects half-list (true, forces on
/// both partners including ghosts, reverse-communicated afterwards by the
/// caller) or full-list (false, forces on i only) evaluation.
class Potential {
 public:
  virtual ~Potential() = default;

  virtual ForceResult compute(Atoms& atoms, const NeighborList& list,
                              bool newton, GhostDataComm* ghost_comm) = 0;

  virtual double cutoff() const = 0;

  // --- staged split evaluation (the step pipeline's force path) --------
  //
  // The split contract decomposes one force evaluation into per-group
  // tasks, the nodes of the step DAG (sim/simulation.cpp):
  //
  //   split_begin(atoms, list, newton, groups)
  //   for pass in [0, split_passes()):
  //     split_group(pass, g)   for every group   (any order / concurrent)
  //     split_join(pass, ghost_comm)             (serial, canonical)
  //   result = split_finish()
  //
  // Each split_group call writes only that group's private accumulation
  // buffer (never atoms.f()), so concurrent groups cannot race;
  // split_join reduces the buffers in ascending group order, a fixed
  // arithmetic order. Within a group the join visits only the group's
  // footprint (ForceGroups::build_footprints, the entries its rows can
  // write) and re-zeroes each entry it adds, so the buffers are all-zero
  // between evaluations and split_begin need not clear them. Both
  // executors run this one sequence through the same DAG (barrier
  // serially, async on a pool), so they are bitwise-identical by
  // construction: scheduling decides only when a
  // group runs, never the order of a sum. Interior groups (mask 0) read
  // no ghost data in pass 0 and may run before the forward exchange
  // completes; border groups may run as soon as every direction they
  // read (group_reads_dir) has landed. compute() evaluates the same
  // forces in one call; it is the reference the split path is tested
  // against.

  /// Number of split passes: 1 for plain pair styles, 2 for EAM (density
  /// then force, with the mid-pair comm inside split_join(0)).
  virtual int split_passes() const = 0;

  /// Bind one evaluation's inputs and size the per-group buffers.
  /// `groups` must outlive the evaluation (rebuilt per neighbor epoch)
  /// and carry footprints built for (`list`, `newton`, atoms.ntotal()).
  /// An evaluation abandoned before its final split_join (a thrown task)
  /// leaves buffers dirty; the next split_begin then zeroes them all.
  virtual void split_begin(Atoms& atoms, const NeighborList& list,
                           bool newton, const ForceGroups* groups) = 0;

  /// Compute group `g`'s contribution to pass `pass` into its private
  /// buffer. Thread-safe across distinct groups of the same pass.
  virtual void split_group(int pass, int g) = 0;

  /// Reduce pass `pass` in ascending group order and run any mid-pass
  /// ghost communication (EAM rho reverse-add / fp forward). Serial.
  virtual void split_join(int pass, GhostDataComm* ghost_comm) = 0;

  /// Energy/virial of the completed evaluation (summed per-group in
  /// ascending group order).
  virtual ForceResult split_finish() = 0;
};

}  // namespace lmp::md
