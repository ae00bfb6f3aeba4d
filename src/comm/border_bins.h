#pragma once

#include <array>
#include <vector>

#include "geom/box.h"
#include "util/vec3.h"

namespace lmp::comm {

/// Border-bin target selection (paper Sec. 3.5.2).
///
/// To decide which neighbors a local atom must be sent to, the naive path
/// tests the atom against all 13/26 neighbor ghost slabs. Instead each
/// axis puts the atom in one of four states against the planes `lo+rc`
/// and `hi-rc`: none, low, high, or both (a side thinner than 2*rc has a
/// middle slab within rc of both faces). The three states form a 6-bit
/// region mask — the band mask md::ForceGroups uses — and each of the 64
/// regions has a precomputed direction list, so the lookup is six
/// comparisons and one index. Valid for every side, not just sides of
/// at least 2*rc.
class BorderBins {
 public:
  /// `send_dirs`: the directions this rank sends border atoms to (lower
  /// 13 with Newton on, all 26 otherwise). Each region's list keeps
  /// their order.
  BorderBins(const geom::Box& sub_box, double rc,
             const std::vector<int>& send_dirs);

  /// Directions atom position `p` must be sent to.
  const std::vector<int>& targets(const geom::Vec3& p) const {
    return region_targets_[static_cast<std::size_t>(region_of(p))];
  }

  /// Does position `p` lie in the ghost slab of direction `dir`: within
  /// rc of every face the direction crosses? The one slab rule.
  static bool in_slab(const geom::Box& sub_box, double rc, int dir,
                      const geom::Vec3& p);

  /// Naive scan: direction subset of `send_dirs` whose slab contains `p`
  /// (the tests' oracle).
  static std::vector<int> targets_naive(const geom::Box& sub_box, double rc,
                                        const std::vector<int>& send_dirs,
                                        const geom::Vec3& p);

 private:
  /// Region mask: per axis bit 0 = within rc of the low face, bit 1 =
  /// within rc of the high face (x in bits 0-1, y in 2-3, z in 4-5).
  int region_of(const geom::Vec3& p) const {
    return static_cast<int>(p.x < low_.x) |
           static_cast<int>(p.x > high_.x) << 1 |
           static_cast<int>(p.y < low_.y) << 2 |
           static_cast<int>(p.y > high_.y) << 3 |
           static_cast<int>(p.z < low_.z) << 4 |
           static_cast<int>(p.z > high_.z) << 5;
  }

  geom::Vec3 low_;   ///< lo + rc: below it an atom is in the low slab
  geom::Vec3 high_;  ///< hi - rc: above it an atom is in the high slab
  std::array<std::vector<int>, 64> region_targets_;
};

}  // namespace lmp::comm
