#pragma once

#include "tofu/coords.h"
#include "util/vec3.h"

namespace lmp::tofu {

using util::Int3;

/// A (sub-)allocation of the TofuD 6D mesh/torus.
///
/// Node ids are dense in [0, total_nodes). The allocation is shaped as
/// `cells` x (2 x 3 x 2): the job scheduler hands out whole 2x3x2 cells
/// ("a shelf is 2x3x8 = 4 cells", paper Sec. 4.3.1).
class Topology {
 public:
  /// Build an allocation of cx*cy*cz cells. Throws if any count < 1 or
  /// the allocation exceeds the full machine shape.
  Topology(int cells_x, int cells_y, int cells_z);

  /// Allocation sized to cover at least `nodes` nodes with a near-cubic
  /// cell shape (how the paper requests "integral multiples of a shelf").
  static Topology for_nodes(long nodes);

  long nnodes() const { return shape_.total_nodes(); }
  const AxisShape& shape() const { return shape_; }

  TofuCoord coord_of(long node) const;
  long node_of(const TofuCoord& c) const;

  /// Dimension-order-routing hop count between two nodes: the sum of
  /// per-axis torus/mesh distances. Production routes through
  /// LinkTelemetry::route; tests check its routes against this.
  int hops(long u, long v) const;

 private:
  Int3 cells_;
  AxisShape shape_;
};

}  // namespace lmp::tofu
