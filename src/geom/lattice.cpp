#include "geom/lattice.h"

#include <cmath>
#include <stdexcept>

namespace lmp::geom {

FccLattice FccLattice::from_density(double reduced_density) {
  if (reduced_density <= 0) throw std::invalid_argument("density must be > 0");
  return FccLattice{std::cbrt(4.0 / reduced_density)};
}

FccLattice FccLattice::from_constant(double lattice_constant) {
  if (lattice_constant <= 0) throw std::invalid_argument("cell must be > 0");
  return FccLattice{lattice_constant};
}

std::vector<Vec3> FccLattice::generate(int nx, int ny, int nz) const {
  if (nx < 1 || ny < 1 || nz < 1) throw std::invalid_argument("cells >= 1");
  // FCC basis in cell units.
  static constexpr double basis[4][3] = {
      {0.0, 0.0, 0.0}, {0.5, 0.5, 0.0}, {0.5, 0.0, 0.5}, {0.0, 0.5, 0.5}};
  std::vector<Vec3> out;
  out.reserve(static_cast<std::size_t>(4) * nx * ny * nz);
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        for (const auto& b : basis) {
          out.push_back({(i + b[0]) * cell, (j + b[1]) * cell, (k + b[2]) * cell});
        }
      }
    }
  }
  return out;
}

Box FccLattice::box_for(int nx, int ny, int nz) const {
  return Box{{0.0, 0.0, 0.0}, {nx * cell, ny * cell, nz * cell}};
}

}  // namespace lmp::geom
