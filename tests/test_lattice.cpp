#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "geom/lattice.h"

namespace lmp::geom {
namespace {

TEST(FccLattice, FromDensityMatchesLammpsLjLattice) {
  // LAMMPS `lattice fcc 0.8442` in lj units.
  const FccLattice l = FccLattice::from_density(0.8442);
  EXPECT_NEAR(l.cell, std::cbrt(4.0 / 0.8442), 1e-12);
  EXPECT_NEAR(l.density(), 0.8442, 1e-12);
}

TEST(FccLattice, FromConstant) {
  const FccLattice l = FccLattice::from_constant(3.615);
  EXPECT_DOUBLE_EQ(l.cell, 3.615);
  EXPECT_NEAR(l.density(), 4.0 / (3.615 * 3.615 * 3.615), 1e-15);
}

TEST(FccLattice, GenerateCount) {
  const FccLattice l = FccLattice::from_constant(1.0);
  EXPECT_EQ(l.generate(2, 3, 4).size(), 4u * 2 * 3 * 4);
}

TEST(FccLattice, AtomsInsideBox) {
  const FccLattice l = FccLattice::from_constant(2.0);
  const Box b = l.box_for(3, 3, 3);
  for (const Vec3& p : l.generate(3, 3, 3)) {
    EXPECT_TRUE(b.contains(p));
  }
}

TEST(FccLattice, NearestNeighborDistance) {
  const FccLattice l = FccLattice::from_constant(3.615);
  const auto atoms = l.generate(2, 2, 2);
  const Box box = l.box_for(2, 2, 2);
  double min_d2 = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      min_d2 = std::min(min_d2, norm_sq(box.min_image(atoms[i], atoms[j])));
    }
  }
  EXPECT_NEAR(std::sqrt(min_d2), 3.615 / std::sqrt(2.0), 1e-9);
}

TEST(FccLattice, InvalidArgsThrow) {
  EXPECT_THROW(FccLattice::from_density(0.0), std::invalid_argument);
  EXPECT_THROW(FccLattice::from_constant(-1.0), std::invalid_argument);
  const FccLattice l = FccLattice::from_constant(1.0);
  EXPECT_THROW(l.generate(0, 1, 1), std::invalid_argument);
}

TEST(FccLattice, NoDuplicatePositions) {
  const FccLattice l = FccLattice::from_constant(1.0);
  const auto atoms = l.generate(3, 3, 3);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      EXPECT_GT(norm_sq(atoms[i] - atoms[j]), 1e-6);
    }
  }
}

}  // namespace
}  // namespace lmp::geom
