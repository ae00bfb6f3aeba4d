#include "tofu/topology.h"

#include <stdexcept>

#include "tofu/hardware.h"

namespace lmp::tofu {

Topology::Topology(int cells_x, int cells_y, int cells_z)
    : cells_{cells_x, cells_y, cells_z} {
  if (cells_x < 1 || cells_y < 1 || cells_z < 1) {
    throw std::invalid_argument("cell counts must be >= 1");
  }
  if (cells_x > Hardware::kCellsX || cells_y > Hardware::kCellsY ||
      cells_z > Hardware::kCellsZ) {
    throw std::invalid_argument("allocation exceeds the Fugaku machine shape");
  }
  shape_.size = {cells_x, cells_y, cells_z, 2, 3, 2};
  // A sub-allocation smaller than the full machine does not wrap on the
  // cell axes (torus links exist only machine-wide); the intra-cell B axis
  // is always a 3-torus.
  shape_.torus = {cells_x == Hardware::kCellsX, cells_y == Hardware::kCellsY,
                  cells_z == Hardware::kCellsZ, false, true, false};
}

Topology Topology::for_nodes(long nodes) {
  if (nodes < 1) throw std::invalid_argument("nodes must be >= 1");
  // Grow a near-cubic cell allocation until it covers the request.
  int cx = 1, cy = 1, cz = 1;
  auto total = [&] { return static_cast<long>(cx) * cy * cz * Hardware::kNodesPerCell; };
  int turn = 0;
  while (total() < nodes) {
    switch (turn % 3) {
      case 0:
        if (cx < Hardware::kCellsX) ++cx;
        break;
      case 1:
        if (cy < Hardware::kCellsY) ++cy;
        break;
      default:
        if (cz < Hardware::kCellsZ) ++cz;
        break;
    }
    ++turn;
    if (turn > 3 * (Hardware::kCellsX + Hardware::kCellsY + Hardware::kCellsZ) &&
        total() < nodes) {
      throw std::invalid_argument("request exceeds the full machine");
    }
  }
  return Topology(cx, cy, cz);
}

TofuCoord Topology::coord_of(long node) const {
  if (node < 0 || node >= nnodes()) throw std::out_of_range("node id");
  TofuCoord c;
  long rest = node;
  // Order: c fastest, then b, a, x, y, z — matches node_of below.
  c[Axis::kC] = static_cast<int>(rest % 2);
  rest /= 2;
  c[Axis::kB] = static_cast<int>(rest % 3);
  rest /= 3;
  c[Axis::kA] = static_cast<int>(rest % 2);
  rest /= 2;
  c[Axis::kX] = static_cast<int>(rest % cells_.x);
  rest /= cells_.x;
  c[Axis::kY] = static_cast<int>(rest % cells_.y);
  rest /= cells_.y;
  c[Axis::kZ] = static_cast<int>(rest);
  return c;
}

long Topology::node_of(const TofuCoord& c) const {
  for (int ax = 0; ax < kAxisCount; ++ax) {
    if (c.v[ax] < 0 || c.v[ax] >= shape_.size[ax]) {
      throw std::out_of_range("tofu coordinate out of allocation");
    }
  }
  long id = c[Axis::kZ];
  id = id * cells_.y + c[Axis::kY];
  id = id * cells_.x + c[Axis::kX];
  id = id * 2 + c[Axis::kA];
  id = id * 3 + c[Axis::kB];
  id = id * 2 + c[Axis::kC];
  return id;
}

int Topology::hops(long u, long v) const {
  const TofuCoord cu = coord_of(u);
  const TofuCoord cv = coord_of(v);
  int h = 0;
  for (int ax = 0; ax < kAxisCount; ++ax) {
    h += shape_.axis_hops(static_cast<Axis>(ax), cu.v[ax], cv.v[ax]);
  }
  return h;
}

}  // namespace lmp::tofu
