#include <gtest/gtest.h>

#include <vector>

#include "md/atoms.h"

namespace lmp::md {
namespace {

Atoms make_atoms(int n, int cap = 100) {
  Atoms a;
  a.reserve_capacity(cap);
  for (int i = 0; i < n; ++i) {
    a.add_local({1.0 * i, 2.0 * i, 3.0 * i}, {0.1 * i, 0.2 * i, 0.3 * i}, i + 100);
  }
  return a;
}

TEST(Atoms, AddLocalStoresEverything) {
  Atoms a = make_atoms(3);
  EXPECT_EQ(a.nlocal(), 3);
  EXPECT_EQ(a.nghost(), 0);
  EXPECT_EQ(a.ntotal(), 3);
  EXPECT_EQ(a.pos(2), (Vec3{2, 4, 6}));
  EXPECT_EQ(a.vel(1), (Vec3{0.1, 0.2, 0.3}));
  EXPECT_EQ(a.tag(0), 100);
}

TEST(Atoms, CapacityExceededThrows) {
  Atoms a = make_atoms(2, 2);
  EXPECT_THROW(a.add_local({0, 0, 0}, {0, 0, 0}, 1), std::length_error);
}

TEST(Atoms, GhostsFollowLocals) {
  Atoms a = make_atoms(2);
  const int g = a.add_ghost({9, 9, 9}, 500);
  EXPECT_EQ(g, 2);
  EXPECT_EQ(a.nghost(), 1);
  EXPECT_EQ(a.ntotal(), 3);
  EXPECT_EQ(a.tag(2), 500);
  a.clear_ghosts();
  EXPECT_EQ(a.nghost(), 0);
}

TEST(Atoms, AddLocalWhileGhostsExistThrows) {
  Atoms a = make_atoms(1);
  a.add_ghost({0, 0, 0}, 1);
  EXPECT_THROW(a.add_local({0, 0, 0}, {0, 0, 0}, 2), std::logic_error);
}

TEST(Atoms, RemoveLocalsCompactsInOrder) {
  Atoms a = make_atoms(5);
  const std::vector<int> gone{1, 3};
  a.remove_locals(gone);
  EXPECT_EQ(a.nlocal(), 3);
  EXPECT_EQ(a.tag(0), 100);
  EXPECT_EQ(a.tag(1), 102);
  EXPECT_EQ(a.tag(2), 104);
  EXPECT_EQ(a.pos(1), (Vec3{2, 4, 6}));
}

TEST(Atoms, RemoveAllAndNone) {
  Atoms a = make_atoms(3);
  a.remove_locals(std::vector<int>{});
  EXPECT_EQ(a.nlocal(), 3);
  const std::vector<int> all{0, 1, 2};
  a.remove_locals(all);
  EXPECT_EQ(a.nlocal(), 0);
}

TEST(Atoms, RemoveOutOfRangeThrows) {
  Atoms a = make_atoms(2);
  const std::vector<int> bad{5};
  EXPECT_THROW(a.remove_locals(bad), std::out_of_range);
}

TEST(Atoms, RemoveWithGhostsThrows) {
  Atoms a = make_atoms(2);
  a.add_ghost({0, 0, 0}, 7);
  const std::vector<int> gone{0};
  EXPECT_THROW(a.remove_locals(gone), std::logic_error);
}

TEST(Atoms, ZeroForcesCoversGhosts) {
  Atoms a = make_atoms(2);
  a.add_ghost({0, 0, 0}, 7);
  a.f()[0] = 5.0;
  a.f()[8] = 6.0;  // ghost slot
  a.zero_forces();
  EXPECT_DOUBLE_EQ(a.f()[0], 0.0);
  EXPECT_DOUBLE_EQ(a.f()[8], 0.0);
}

TEST(Atoms, NetForceSumsLocalsOnly) {
  Atoms a = make_atoms(2);
  a.add_ghost({0, 0, 0}, 7);
  a.f()[0] = 1.0;   // local 0 x
  a.f()[3] = 2.0;   // local 1 x
  a.f()[6] = 99.0;  // ghost x — excluded
  const Vec3 nf = a.net_force();
  EXPECT_DOUBLE_EQ(nf.x, 3.0);
}

TEST(Atoms, ReserveCapacityPreservesData) {
  Atoms a = make_atoms(2, 4);
  a.reserve_capacity(50);
  EXPECT_EQ(a.capacity(), 50);
  EXPECT_EQ(a.tag(1), 101);
  EXPECT_EQ(a.pos(1), (Vec3{1, 2, 3}));
  // Shrinking is ignored.
  a.reserve_capacity(10);
  EXPECT_EQ(a.capacity(), 50);
}

TEST(Atoms, ArrayBytes) {
  Atoms a = make_atoms(0, 10);
  EXPECT_EQ(a.array_bytes(), 3u * 10 * sizeof(double));
}

}  // namespace
}  // namespace lmp::md
