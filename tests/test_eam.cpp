#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernel_pin.h"
#include "md/eam.h"
#include "md/neighbor.h"

namespace lmp::md {
namespace {

Eam make_eam() { return Eam(make_cu_like_table(2000, 2000, 4.95)); }

/// Total EAM energy of a configuration evaluated with a full list.
double energy_of(Eam& eam, Atoms& atoms) {
  NeighborBuilder b(4.95);
  const NeighborList l = b.build_full(atoms);
  atoms.zero_forces();
  return eam.compute(atoms, l, false, nullptr).energy;
}

Atoms cluster(std::initializer_list<Vec3> pos) {
  Atoms a;
  a.reserve_capacity(static_cast<int>(pos.size()) + 2);
  std::int64_t tag = 0;
  for (const Vec3& p : pos) a.add_local(p, {0, 0, 0}, tag++);
  return a;
}

TEST(Eam, CutoffAccessor) {
  Eam eam = make_eam();
  EXPECT_DOUBLE_EQ(eam.cutoff(), 4.95);
}

TEST(Eam, TabulatedFunctionsSane) {
  Eam eam = make_eam();
  EXPECT_GT(eam.rho_of_r(2.5), 0.0);
  EXPECT_GT(eam.rho_of_r(2.0), eam.rho_of_r(3.0));  // decaying density
  EXPECT_LT(eam.phi_of_r(2.87), 0.0);               // attractive near r0
  EXPECT_GT(eam.phi_of_r(1.8), 0.0);                // repulsive core
  EXPECT_LT(eam.embed(4.0), eam.embed(1.0));        // embedding binds
}

TEST(Eam, DimerEnergyIsPhiPlusEmbedding) {
  Eam eam = make_eam();
  const double r = 2.6;
  Atoms a = cluster({{0, 0, 0}, {r, 0, 0}});
  const double e = energy_of(eam, a);
  const double expected = eam.phi_of_r(r) + 2.0 * eam.embed(eam.rho_of_r(r));
  EXPECT_NEAR(e, expected, 1e-9);
}

TEST(Eam, ForceIsMinusEnergyGradient) {
  Eam eam = make_eam();
  const double h = 1e-6;
  for (double r : {2.2, 2.6, 3.0, 3.8, 4.5}) {
    Atoms a = cluster({{0, 0, 0}, {r, 0, 0}});
    NeighborBuilder b(4.95);
    const NeighborList l = b.build_half(a, HalfRule::kCoordTieBreak);
    a.zero_forces();
    eam.compute(a, l, true, nullptr);
    const double fx = a.force(0).x;

    Atoms ap = cluster({{0, 0, 0}, {r + h, 0, 0}});
    Atoms am = cluster({{0, 0, 0}, {r - h, 0, 0}});
    const double fd = -(energy_of(eam, ap) - energy_of(eam, am)) / (2 * h);
    // Force on atom 1 along +x equals -dE/dr; on atom 0 it is +dE/dr.
    EXPECT_NEAR(-fx, fd, 1e-4 * std::max(1.0, std::fabs(fd))) << "r=" << r;
  }
}

TEST(Eam, NewtonPairForcesOpposite) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0.3, -0.2}});
  NeighborBuilder b(4.95);
  const NeighborList l = b.build_half(a, HalfRule::kCoordTieBreak);
  a.zero_forces();
  eam.compute(a, l, true, nullptr);
  EXPECT_NEAR(a.force(0).x, -a.force(1).x, 1e-10);
  EXPECT_NEAR(a.force(0).y, -a.force(1).y, 1e-10);
  EXPECT_NEAR(a.force(0).z, -a.force(1).z, 1e-10);
}

TEST(Eam, HalfAndFullListsAgree) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0, 0}, {1.3, 2.1, 0}, {0.5, 0.8, 2.2}});
  NeighborBuilder b(4.95);

  a.zero_forces();
  const ForceResult half =
      eam.compute(a, b.build_half(a, HalfRule::kCoordTieBreak), true, nullptr);
  std::vector<Vec3> f_half;
  for (int i = 0; i < a.nlocal(); ++i) f_half.push_back(a.force(i));

  a.zero_forces();
  const ForceResult full = eam.compute(a, b.build_full(a), false, nullptr);
  EXPECT_NEAR(half.energy, full.energy, 1e-9);
  EXPECT_NEAR(half.virial, full.virial, 1e-9);
  for (int i = 0; i < a.nlocal(); ++i) {
    EXPECT_NEAR(a.force(i).x, f_half[static_cast<std::size_t>(i)].x, 1e-9);
    EXPECT_NEAR(a.force(i).y, f_half[static_cast<std::size_t>(i)].y, 1e-9);
    EXPECT_NEAR(a.force(i).z, f_half[static_cast<std::size_t>(i)].z, 1e-9);
  }
}

TEST(Eam, TrimerDensityAccumulates) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0, 0}, {-2.5, 0, 0}});
  NeighborBuilder b(4.95);
  a.zero_forces();
  eam.compute(a, b.build_full(a), false, nullptr);
  const auto& rho = eam.last_rho();
  // Central atom sees both neighbors at 2.5, plus the outer pair at 5.0
  // which is beyond cutoff.
  EXPECT_NEAR(rho[0], 2.0 * eam.rho_of_r(2.5), 1e-9);
  EXPECT_NEAR(rho[1], eam.rho_of_r(2.5), 1e-9);
}

TEST(Eam, CentralAtomOfSymmetricTrimerFeelsNoForce) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0, 0}, {-2.5, 0, 0}});
  NeighborBuilder b(4.95);
  a.zero_forces();
  eam.compute(a, b.build_full(a), false, nullptr);
  EXPECT_NEAR(a.force(0).x, 0.0, 1e-10);
}

TEST(Eam, InvalidTableThrows) {
  EamTable t = make_cu_like_table(100, 100, 4.95);
  t.cutoff = 0.0;
  EXPECT_THROW(Eam{t}, std::invalid_argument);

  // The force pass looks up one segment for both rho(r) and z2(r), so
  // their grids must be the same.
  EamTable g = make_cu_like_table(100, 100, 4.95);
  g.z2r.push_back(0.0);
  EXPECT_THROW(Eam{g}, std::invalid_argument);
}

/// A funcfl-layout table built from polynomials and sqrt only, whose
/// samples are the same bits under any libm.
EamTable polynomial_table() {
  EamTable t;
  t.cutoff = 4.95;
  t.nr = 1000;
  t.dr = t.cutoff / t.nr;
  for (int i = 0; i < t.nr; ++i) {
    const double r = (i + 1) * t.dr;
    const double u = std::max(0.0, 1.0 - r / t.cutoff);
    t.rhor.push_back(3.0 * u * u * u * u);
    t.z2r.push_back(r * 4.0 * u * u * u * (2.45 - r));
  }
  t.nrho = 1000;
  t.drho = 0.01;
  for (int i = 0; i < t.nrho; ++i) {
    t.frho.push_back(-0.85 * std::sqrt(i * t.drho));
  }
  return t;
}

TEST(Eam, KernelBitsMatchParent) {
  // Absolute pin of the EAM kernels' bits (forces, energy, virial and the
  // densities). Every other golden compares two paths of the current
  // code, so a change that moved the bits of all paths at once would
  // pass them; this one would not. The hashes were recorded by running
  // this body against src/md at commit 283ac4a, before the spline lookup
  // moved inline. A kernel change that legitimately moves bits must say
  // so and re-record them.
  const double rc = 5.3;
  pin::PeriodicBox pb =
      pin::perturbed_fcc(geom::FccLattice::from_constant(3.615), 3, 0.2, rc);
  Eam eam(polynomial_table());
  std::vector<std::uint64_t> got;
  pin::run_three(eam, pb, rc, [&](const ForceResult& r) {
    pin::Fnv1a h;
    h.add(eam.last_rho().data(), eam.last_rho().size());
    got.push_back(pin::hash_eval(pb.atoms, r, h));
  });
  const std::vector<std::uint64_t> want{
      0xff8cd3864156be15ull, 0xadc1fac4663ca63eull, 0x448a05f66b6f6916ull};
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got[0], want[0]) << "compute, half list, newton on";
  EXPECT_EQ(got[1], want[1]) << "compute, full list, newton off";
  EXPECT_EQ(got[2], want[2]) << "split path, half list, newton on";
}

}  // namespace
}  // namespace lmp::md
