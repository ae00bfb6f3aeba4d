#pragma once

#include "geom/box.h"
#include "util/vec3.h"

namespace lmp::geom {

using util::Int3;

/// Message-size class of a neighbor in the ghost-region algebra.
/// For a single shell: faces share an a*a*r slab, edges an a*r*r bar,
/// corners an r^3 cube (paper Table 1).
enum class NeighborClass { kFace, kEdge, kCorner };

/// Which halves of the neighbor stencil a rank exchanges with when
/// Newton's 3rd law is on (paper Fig. 5): ghost atoms are *received* from
/// the "upper" half (yellow) and own atoms are *sent* to the "lower" half
/// (white); forces flow the opposite way in the reverse stage.
enum class HalfShell { kUpper, kLower };

/// True if `offset` belongs to the requested half under the standard
/// lexicographic rule ((z,y,x) > 0 for upper).
bool in_half(const Int3& offset, HalfShell half);

/// Regular 3D decomposition of a periodic box over px*py*pz MPI ranks.
///
/// Rank order matches LAMMPS comm_brick: x fastest, then y, then z.
class Decomposition {
 public:
  Decomposition(Int3 grid, Box global);

  int nranks() const { return grid_.x * grid_.y * grid_.z; }
  Int3 grid() const { return grid_; }
  const Box& global() const { return global_; }

  Int3 coord_of(int rank) const;
  int rank_of(Int3 coord) const;  ///< periodic wrap on each axis

  /// Sub-box owned by `rank` (half-open on every axis).
  Box sub_box(int rank) const;

  /// Owner rank of a (wrapped) position.
  int owner_of(const Vec3& p) const;

 private:
  Int3 grid_;
  Box global_;
};

}  // namespace lmp::geom
