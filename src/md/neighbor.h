#pragma once

#include <vector>

#include "md/atoms.h"

namespace lmp::md {

/// Which pairs a *half* list keeps when ghosts are present.
enum class HalfRule {
  /// Ghost pairs filtered by the LAMMPS coordinate tie-break (z, then y,
  /// then x greater than mine). Needed when ghosts surround the sub-box
  /// on all 26 sides (3-stage comm): both owners see the pair and exactly
  /// one must keep it.
  kCoordTieBreak,
  /// Keep every local-ghost pair. Correct for the p2p half-shell exchange
  /// (paper Fig. 5): ghosts only come from the upper 13 directions, so a
  /// cross-rank pair exists on exactly one rank by construction.
  kAllGhosts,
};

/// CSR neighbor list: neighbors of local atom i are
/// `neigh[offsets[i] .. offsets[i+1])`.
struct NeighborList {
  bool full = false;
  std::vector<int> offsets;
  std::vector<int> neigh;

  int count(int i) const { return offsets[i + 1] - offsets[i]; }
  long total_pairs() const { return static_cast<long>(neigh.size()); }
};

/// Spatial-binning neighbor-list builder over one rank's local + ghost
/// atoms. Bins are at least half the neighbor cutoff (cutoff + skin)
/// wide, so candidate pairs live in a 5x5x5-bin stencil, scanned as 25
/// contiguous x-rows of the bin-sorted coordinates.
///
/// Each atom's row is in canonical order (by neighbor tag, coordinates
/// breaking ties between periodic images), so the pair-force summation
/// order — and therefore the trajectory — does not depend on the ghost
/// placement order of the comm variant that built the halo.
///
/// The builder owns its per-atom scratch and reuses it across builds.
class NeighborBuilder {
 public:
  explicit NeighborBuilder(double neighbor_cutoff);

  /// Half list (Newton's 3rd law on): local-local pairs once (i < j),
  /// local-ghost pairs per `rule`.
  NeighborList build_half(const Atoms& atoms, HalfRule rule);

  /// Full list (Newton off / many-body potentials): every neighbor of
  /// every local atom, both directions of local-local pairs.
  NeighborList build_full(const Atoms& atoms);

 private:
  enum class Keep { kFull, kHalfAllGhosts, kHalfTieBreak };

  NeighborList build(const Atoms& atoms, Keep keep);
  void rank_atoms(const Atoms& atoms);
  void bin_atoms(const Atoms& atoms);
  template <Keep K>
  void scan_rows(const Atoms& atoms, NeighborList& list);
  void order_rows(int ntotal, NeighborList& list);

  double cutoff_;

  // Canonical rank: order_[r] is the atom of rank r, sorted by (tag, z,
  // y, x); rank_[i] is atom i's rank.
  std::vector<int> order_;
  std::vector<int> rank_;

  // Bins: dims_ per axis, atoms counting-sorted by bin (x fastest) into
  // contiguous coordinate, index and rank arrays; bin b holds sorted
  // slots [bin_start_[b], bin_start_[b+1]).
  int dims_[3] = {1, 1, 1};
  std::vector<int> bin_of_;
  std::vector<int> bin_start_;
  std::vector<double> bx_, by_, bz_;
  std::vector<int> bidx_;
  std::vector<int> brank_;

  // Row ordering: bucket bounds by neighbor rank, each row's write
  // cursor, and the last build's pair count (sizes the next list). The
  // pair-sized bucket contents are allocated per build, so what the
  // builder keeps between builds scales with the atoms, not the pairs.
  std::vector<int> bucket_;
  std::vector<int> cursor_;
  std::size_t pairs_hint_ = 0;
};

}  // namespace lmp::md
