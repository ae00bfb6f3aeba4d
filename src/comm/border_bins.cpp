#include "comm/border_bins.h"

#include "comm/directions.h"

namespace lmp::comm {

BorderBins::BorderBins(const geom::Box& sub_box, double rc,
                       const std::vector<int>& send_dirs) {
  for (int axis = 0; axis < 3; ++axis) {
    const auto a = static_cast<std::size_t>(axis);
    low_[a] = sub_box.lo[a] + rc;
    high_[a] = sub_box.hi[a] - rc;
  }
  const auto& dirs = all_dirs();
  for (int mask = 0; mask < 64; ++mask) {
    auto& list = region_targets_[static_cast<std::size_t>(mask)];
    for (const int d : send_dirs) {
      const util::Int3 o = dirs[static_cast<std::size_t>(d)];
      bool match = true;
      for (int axis = 0; axis < 3; ++axis) {
        const int oc = o[static_cast<std::size_t>(axis)];
        const int bits = mask >> (2 * axis);
        if ((oc == -1 && !(bits & 1)) || (oc == 1 && !(bits & 2))) {
          match = false;
        }
      }
      if (match) list.push_back(d);
    }
  }
}

bool BorderBins::in_slab(const geom::Box& sub_box, double rc, int dir,
                         const geom::Vec3& p) {
  const util::Int3 o = all_dirs()[static_cast<std::size_t>(dir)];
  for (int axis = 0; axis < 3; ++axis) {
    const auto a = static_cast<std::size_t>(axis);
    if (o[a] == -1 && !(p[a] < sub_box.lo[a] + rc)) return false;
    if (o[a] == 1 && !(p[a] > sub_box.hi[a] - rc)) return false;
  }
  return true;
}

std::vector<int> BorderBins::targets_naive(const geom::Box& sub_box, double rc,
                                           const std::vector<int>& send_dirs,
                                           const geom::Vec3& p) {
  std::vector<int> out;
  for (const int d : send_dirs) {
    if (in_slab(sub_box, rc, d, p)) out.push_back(d);
  }
  return out;
}

}  // namespace lmp::comm
