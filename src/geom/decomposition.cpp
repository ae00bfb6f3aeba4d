#include "geom/decomposition.h"

#include <stdexcept>

namespace lmp::geom {

bool in_half(const Int3& offset, HalfShell half) {
  // Lexicographic (z, y, x) ordering; the upper half receives ghosts.
  const bool upper = (offset.z > 0) || (offset.z == 0 && offset.y > 0) ||
                     (offset.z == 0 && offset.y == 0 && offset.x > 0);
  return half == HalfShell::kUpper ? upper : !upper;
}

Decomposition::Decomposition(Int3 grid, Box global)
    : grid_(grid), global_(global) {
  if (grid.x < 1 || grid.y < 1 || grid.z < 1) {
    throw std::invalid_argument("decomposition grid must be >= 1 per axis");
  }
}

Int3 Decomposition::coord_of(int rank) const {
  if (rank < 0 || rank >= nranks()) throw std::out_of_range("rank out of range");
  return {rank % grid_.x, (rank / grid_.x) % grid_.y, rank / (grid_.x * grid_.y)};
}

int Decomposition::rank_of(Int3 c) const {
  auto wrap = [](int v, int n) {
    v %= n;
    return v < 0 ? v + n : v;
  };
  const int x = wrap(c.x, grid_.x);
  const int y = wrap(c.y, grid_.y);
  const int z = wrap(c.z, grid_.z);
  return x + grid_.x * (y + grid_.y * z);
}

Box Decomposition::sub_box(int rank) const {
  const Int3 c = coord_of(rank);
  const Vec3 e = global_.extent();
  Box b;
  for (int d = 0; d < 3; ++d) {
    const double step = e[d] / grid_[d];
    b.lo[d] = global_.lo[d] + step * c[d];
    b.hi[d] = (c[d] == grid_[d] - 1) ? global_.hi[d]
                                     : global_.lo[d] + step * (c[d] + 1);
  }
  return b;
}

int Decomposition::owner_of(const Vec3& p) const {
  const Vec3 q = global_.wrap(p);
  const Vec3 e = global_.extent();
  Int3 c;
  for (int d = 0; d < 3; ++d) {
    const double step = e[d] / grid_[d];
    c[d] = static_cast<int>((q[d] - global_.lo[d]) / step);
    if (c[d] >= grid_[d]) c[d] = grid_[d] - 1;  // hi-edge guard
  }
  return rank_of(c);
}

}  // namespace lmp::geom
