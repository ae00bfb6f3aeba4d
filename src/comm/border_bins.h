#pragma once

#include <array>
#include <vector>

#include "geom/box.h"
#include "util/vec3.h"

namespace lmp::comm {

/// Border-bin target selection (paper Sec. 3.5.2).
///
/// To decide which neighbors a local atom must be sent to, the naive path
/// tests the atom against all 13/26 neighbor ghost slabs. Instead we cut
/// the sub-box into 3x3x3 regions with the planes `lo+rc` and `hi-rc` on
/// each axis; an atom's region determines its target-direction set with
/// three comparisons per axis. Each of the 27 regions has a precomputed
/// direction list.
///
/// Requires every sub-box side >= 2*rc so the two planes do not cross
/// (the caller falls back to the naive scan otherwise — exactly the
/// regime Fig. 15 probes, where the cutoff exceeds the sub-box).
class BorderBins {
 public:
  /// `send_dirs`: the directions this rank sends border atoms to (lower
  /// 13 with Newton on, all 26 otherwise).
  BorderBins(const geom::Box& sub_box, double rc,
             const std::vector<int>& send_dirs);

  /// True if the geometry admits binning (all sides >= 2*rc).
  static bool applicable(const geom::Box& sub_box, double rc);

  /// Directions atom position `p` must be sent to.
  const std::vector<int>& targets(const geom::Vec3& p) const;

  /// Naive scan: direction subset of `send_dirs` whose slab contains `p`
  /// (the fallback when binning is not applicable, and the tests' oracle).
  static std::vector<int> targets_naive(const geom::Box& sub_box, double rc,
                                        const std::vector<int>& send_dirs,
                                        const geom::Vec3& p);

 private:
  int region_of(const geom::Vec3& p) const;

  geom::Box box_;
  double rc_;
  std::array<std::vector<int>, 27> region_targets_;
};

}  // namespace lmp::comm
