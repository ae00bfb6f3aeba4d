#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "kernel_pin.h"
#include "md/lj.h"
#include "md/neighbor.h"

namespace lmp::md {
namespace {

/// Two atoms a distance r apart along x, second one ghost or local.
Atoms dimer(double r, bool second_is_ghost) {
  Atoms a;
  a.reserve_capacity(4);
  a.add_local({0, 0, 0}, {0, 0, 0}, 0);
  if (second_is_ghost) {
    a.add_ghost({r, 0, 0}, 1);
  } else {
    a.add_local({r, 0, 0}, {0, 0, 0}, 1);
  }
  return a;
}

TEST(LennardJones, PairEnergyAnalytic) {
  LennardJones lj(1.0, 1.0, 2.5);
  // Minimum at r = 2^(1/6), depth -epsilon.
  const double rmin = std::pow(2.0, 1.0 / 6.0);
  EXPECT_NEAR(lj.pair_energy(rmin), -1.0, 1e-12);
  EXPECT_NEAR(lj.pair_energy(1.0), 0.0, 1e-12);  // sigma crossing
}

TEST(LennardJones, ForceZeroAtMinimum) {
  LennardJones lj(1.0, 1.0, 2.5);
  const double rmin = std::pow(2.0, 1.0 / 6.0);
  EXPECT_NEAR(lj.pair_force_over_r(rmin), 0.0, 1e-10);
  EXPECT_GT(lj.pair_force_over_r(1.0), 0.0);   // repulsive inside
  EXPECT_LT(lj.pair_force_over_r(1.5), 0.0);   // attractive outside
}

TEST(LennardJones, ForceIsMinusEnergyGradient) {
  LennardJones lj(1.3, 0.9, 3.0);
  const double h = 1e-7;
  for (double r = 0.85; r < 2.8; r += 0.2) {
    const double fd = -(lj.pair_energy(r + h) - lj.pair_energy(r - h)) / (2 * h);
    EXPECT_NEAR(lj.pair_force_over_r(r) * r, fd, 1e-5 * std::max(1.0, std::fabs(fd)));
  }
}

TEST(LennardJones, ComputeDimerForcesOpposite) {
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = dimer(1.2, false);
  NeighborBuilder b(2.5);
  const NeighborList l = b.build_half(a, HalfRule::kCoordTieBreak);
  a.zero_forces();
  const ForceResult r = lj.compute(a, l, true, nullptr);
  EXPECT_NEAR(a.force(0).x, -a.force(1).x, 1e-12);
  EXPECT_NEAR(a.force(0).y, 0.0, 1e-12);
  // Attractive at 1.2: force on atom 0 points toward atom 1 (+x).
  EXPECT_GT(a.force(0).x, 0.0);
  EXPECT_NEAR(r.energy, lj.pair_energy(1.2), 1e-12);
}

TEST(LennardJones, VirialMatchesPairFormula) {
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = dimer(1.1, false);
  NeighborBuilder b(2.5);
  const NeighborList l = b.build_half(a, HalfRule::kCoordTieBreak);
  a.zero_forces();
  const ForceResult r = lj.compute(a, l, true, nullptr);
  const double fpair = lj.pair_force_over_r(1.1);
  EXPECT_NEAR(r.virial, 1.1 * 1.1 * fpair, 1e-12);
}

TEST(LennardJones, CutoffRespected) {
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = dimer(2.6, false);
  NeighborBuilder b(2.8);  // list cutoff wider than force cutoff
  const NeighborList l = b.build_half(a, HalfRule::kCoordTieBreak);
  a.zero_forces();
  const ForceResult r = lj.compute(a, l, true, nullptr);
  EXPECT_DOUBLE_EQ(r.energy, 0.0);
  EXPECT_DOUBLE_EQ(a.force(0).x, 0.0);
}

TEST(LennardJones, NewtonAppliesForceToGhost) {
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = dimer(1.2, true);
  NeighborBuilder b(2.5);
  const NeighborList l = b.build_half(a, HalfRule::kAllGhosts);
  a.zero_forces();
  lj.compute(a, l, true, nullptr);
  EXPECT_NEAR(a.force(1).x, -a.force(0).x, 1e-12);
  EXPECT_NE(a.force(1).x, 0.0);
}

TEST(LennardJones, FullListHalvesEnergyTallies) {
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = dimer(1.2, false);
  NeighborBuilder b(2.5);

  a.zero_forces();
  const ForceResult half = lj.compute(
      a, b.build_half(a, HalfRule::kCoordTieBreak), true, nullptr);
  const Vec3 f_half = a.force(0);

  a.zero_forces();
  const ForceResult full = lj.compute(a, b.build_full(a), false, nullptr);
  EXPECT_NEAR(half.energy, full.energy, 1e-12);
  EXPECT_NEAR(half.virial, full.virial, 1e-12);
  EXPECT_NEAR(a.force(0).x, f_half.x, 1e-12);
}

TEST(LennardJones, InvalidParamsThrow) {
  EXPECT_THROW(LennardJones(0.0, 1.0, 2.5), std::invalid_argument);
  EXPECT_THROW(LennardJones(1.0, -1.0, 2.5), std::invalid_argument);
  EXPECT_THROW(LennardJones(1.0, 1.0, 0.0), std::invalid_argument);
}

TEST(LennardJones, KernelBitsMatchParent) {
  // Absolute pin of the LJ kernel's bits. Every other golden compares
  // two paths of the current code, so a change that moved the bits of
  // all paths at once would pass them; this one would not. The hashes
  // were recorded by running this body against src/md at commit 283ac4a,
  // before the row kernels became one template per pass. A kernel change
  // that legitimately moves bits must say so and re-record them.
  const double rc = 2.8;
  pin::PeriodicBox pb =
      pin::perturbed_fcc(geom::FccLattice::from_density(0.8442), 4, 0.15, rc);
  LennardJones lj(1.0, 1.0, 2.5);
  std::vector<std::uint64_t> got;
  pin::run_three(lj, pb, rc, [&](const ForceResult& r) {
    got.push_back(pin::hash_eval(pb.atoms, r));
  });
  const std::vector<std::uint64_t> want{
      0xc39e482f5d53171bull, 0x86da7a75b48d01edull, 0x32a2822ffc41b05eull};
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got[0], want[0]) << "compute, half list, newton on";
  EXPECT_EQ(got[1], want[1]) << "compute, full list, newton off";
  EXPECT_EQ(got[2], want[2]) << "split path, half list, newton on";
}

}  // namespace
}  // namespace lmp::md
