#pragma once

#include <vector>

#include "geom/box.h"
#include "util/vec3.h"

namespace lmp::geom {

/// FCC lattice builder — the initial condition of both paper workloads
/// (`lattice fcc 0.8442` for LJ, `lattice fcc 3.615` for EAM copper).
struct FccLattice {
  /// Cubic cell side. For LAMMPS `units lj` the lattice argument is a
  /// *reduced density* rho*, hence cell = (4 / rho*)^(1/3); for `units
  /// metal` it is the lattice constant in Angstrom directly.
  double cell;

  static FccLattice from_density(double reduced_density);
  static FccLattice from_constant(double lattice_constant);

  /// Number density of the lattice (4 atoms per cubic cell).
  double density() const { return 4.0 / (cell * cell * cell); }

  /// Generate nx*ny*nz cells (4 atoms each) starting at origin. Positions
  /// are strictly inside [0, n*cell) on each axis so the box is perfectly
  /// periodic.
  std::vector<Vec3> generate(int nx, int ny, int nz) const;

  /// Box enclosing an nx*ny*nz block of cells at the origin.
  Box box_for(int nx, int ny, int nz) const;
};

}  // namespace lmp::geom
