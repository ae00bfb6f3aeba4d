#include <gtest/gtest.h>

#include "tofu/topology.h"

namespace lmp::tofu {
namespace {

TEST(Topology, NodeCoordRoundTrip) {
  const Topology t(3, 2, 4);
  for (long n = 0; n < t.nnodes(); ++n) {
    EXPECT_EQ(t.node_of(t.coord_of(n)), n);
  }
}

TEST(Topology, NodeCount) {
  const Topology t(2, 2, 2);
  EXPECT_EQ(t.nnodes(), 8L * 12);
}

TEST(Topology, ForNodesCoversRequest) {
  for (long want : {1L, 12L, 100L, 768L, 2160L}) {
    EXPECT_GE(Topology::for_nodes(want).nnodes(), want);
  }
}

TEST(Topology, HopsZeroToSelf) {
  const Topology t(2, 2, 2);
  for (long n = 0; n < t.nnodes(); n += 5) EXPECT_EQ(t.hops(n, n), 0);
}

TEST(Topology, HopsSymmetric) {
  const Topology t(3, 3, 3);
  for (long u = 0; u < t.nnodes(); u += 17) {
    for (long v = 0; v < t.nnodes(); v += 23) {
      EXPECT_EQ(t.hops(u, v), t.hops(v, u));
    }
  }
}

TEST(Topology, HopsTriangleInequality) {
  const Topology t(2, 3, 2);
  for (long u = 0; u < t.nnodes(); u += 7) {
    for (long v = 0; v < t.nnodes(); v += 11) {
      for (long w = 0; w < t.nnodes(); w += 13) {
        EXPECT_LE(t.hops(u, w), t.hops(u, v) + t.hops(v, w));
      }
    }
  }
}

TEST(Topology, IntraCellNeighborsOneHop) {
  const Topology t(1, 1, 1);
  // Within a cell, nodes adjacent on a single axis are one hop apart.
  TofuCoord a;  // (0,0,0,0,0,0)
  TofuCoord b = a;
  b[Axis::kC] = 1;
  EXPECT_EQ(t.hops(t.node_of(a), t.node_of(b)), 1);
  TofuCoord c = a;
  c[Axis::kB] = 2;
  EXPECT_EQ(t.hops(t.node_of(a), t.node_of(c)), 1);  // B is a 3-torus
}

TEST(Topology, InvalidConstruction) {
  EXPECT_THROW(Topology(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Topology(25, 1, 1), std::invalid_argument);  // > machine X
  EXPECT_THROW(Topology::for_nodes(0), std::invalid_argument);
}

TEST(Topology, CoordBoundsChecked) {
  const Topology t(2, 2, 2);
  EXPECT_THROW(t.coord_of(-1), std::out_of_range);
  EXPECT_THROW(t.coord_of(t.nnodes()), std::out_of_range);
  TofuCoord c;
  c[Axis::kB] = 3;
  EXPECT_THROW(t.node_of(c), std::out_of_range);
}

TEST(Topology, SubAllocationDoesNotWrapCellAxes) {
  const Topology t(4, 4, 4);
  // End-to-end distance along X should be 3 cells (mesh), not 1 (torus).
  TofuCoord a, b;
  b[Axis::kX] = 3;
  EXPECT_EQ(t.hops(t.node_of(a), t.node_of(b)), 3);
}

}  // namespace
}  // namespace lmp::tofu
