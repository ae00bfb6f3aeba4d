#include <gtest/gtest.h>

#include <algorithm>

#include "comm/border_bins.h"
#include "comm/directions.h"
#include "util/rng.h"

namespace lmp::comm {
namespace {

std::vector<int> lower_dirs() {
  std::vector<int> out;
  for (int d = 0; d < kNumDirs; ++d) {
    if (!is_upper(d)) out.push_back(d);
  }
  return out;
}

std::vector<int> every_dir() {
  std::vector<int> out(kNumDirs);
  for (int d = 0; d < kNumDirs; ++d) out[static_cast<std::size_t>(d)] = d;
  return out;
}

TEST(BorderBins, ThinSubBoxMatchesNaiveScan) {
  // Sides between one and two cutoffs, one axis at a time and all three
  // at once: the slabs of the two faces overlap, and an atom in the
  // overlap goes both ways. The binned lists must equal the slab scan,
  // entry for entry and in send_dirs order.
  const double rc = 2.0;
  for (const double side : {2.0, 2.9, 3.999}) {
    for (int thin = 0; thin < 4; ++thin) {
      geom::Box box{{-1, 0, 2}, {9, 10, 12}};
      for (int axis = 0; axis < 3; ++axis) {
        if (thin == 3 || thin == axis) {
          const auto a = static_cast<std::size_t>(axis);
          box.hi[a] = box.lo[a] + side;
        }
      }
      for (const auto& dirs : {every_dir(), lower_dirs()}) {
        const BorderBins bins(box, rc, dirs);
        util::Rng rng(static_cast<std::uint64_t>(7 + thin));
        for (int i = 0; i < 3000; ++i) {
          geom::Vec3 p{rng.uniform(box.lo.x, box.hi.x),
                       rng.uniform(box.lo.y, box.hi.y),
                       rng.uniform(box.lo.z, box.hi.z)};
          // Every fourth point sits exactly on one of the planes.
          if (i % 4 == 0) {
            const auto a = static_cast<std::size_t>(rng.uniform_index(3));
            p[a] = i % 8 == 0 ? box.lo[a] + rc : box.hi[a] - rc;
          }
          EXPECT_EQ(bins.targets(p), BorderBins::targets_naive(box, rc, dirs, p))
              << "side " << side << " thin " << thin << " at (" << p.x
              << "," << p.y << "," << p.z << ")";
        }
      }
    }
  }
}

TEST(BorderBins, InteriorAtomTargetsNothing) {
  const geom::Box box{{0, 0, 0}, {10, 10, 10}};
  const BorderBins bins(box, 2.0, every_dir());
  EXPECT_TRUE(bins.targets({5, 5, 5}).empty());
}

TEST(BorderBins, FaceAtomTargetsOneFaceDirection) {
  const geom::Box box{{0, 0, 0}, {10, 10, 10}};
  const BorderBins bins(box, 2.0, every_dir());
  const auto& t = bins.targets({0.5, 5, 5});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(all_dirs()[static_cast<std::size_t>(t[0])], (Int3{-1, 0, 0}));
}

TEST(BorderBins, CornerAtomTargetsSevenDirections) {
  const geom::Box box{{0, 0, 0}, {10, 10, 10}};
  const BorderBins bins(box, 2.0, every_dir());
  // A corner atom is in 3 faces + 3 edges + 1 corner region.
  EXPECT_EQ(bins.targets({0.5, 0.5, 0.5}).size(), 7u);
}

TEST(BorderBins, MatchesNaiveScanEverywhere) {
  const geom::Box box{{-2, 0, 1}, {8, 12, 9}};
  const double rc = 1.7;
  const auto dirs = every_dir();
  const BorderBins bins(box, rc, dirs);
  util::Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    const geom::Vec3 p{rng.uniform(box.lo.x, box.hi.x),
                       rng.uniform(box.lo.y, box.hi.y),
                       rng.uniform(box.lo.z, box.hi.z)};
    auto fast = bins.targets(p);
    auto naive = BorderBins::targets_naive(box, rc, dirs, p);
    std::sort(fast.begin(), fast.end());
    std::sort(naive.begin(), naive.end());
    EXPECT_EQ(fast, naive) << "at (" << p.x << "," << p.y << "," << p.z << ")";
  }
}

TEST(BorderBins, RespectsSendDirSubset) {
  const geom::Box box{{0, 0, 0}, {10, 10, 10}};
  const auto lower = lower_dirs();
  const BorderBins bins(box, 2.0, lower);
  // A +corner atom has no lower-half targets except those with -1
  // components... verify subset property everywhere.
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const geom::Vec3 p{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)};
    for (const int d : bins.targets(p)) {
      EXPECT_FALSE(is_upper(d));
    }
  }
}

TEST(BorderBins, BoundaryExactlyAtPlane) {
  const geom::Box box{{0, 0, 0}, {10, 10, 10}};
  const BorderBins bins(box, 2.0, every_dir());
  // v == lo + rc is NOT inside the low slab (strict <), matching the
  // naive test.
  const auto t = bins.targets({2.0, 5, 5});
  const auto naive = BorderBins::targets_naive(box, 2.0, every_dir(), {2.0, 5, 5});
  EXPECT_EQ(t.size(), naive.size());
}

}  // namespace
}  // namespace lmp::comm
