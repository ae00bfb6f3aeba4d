#include "md/neighbor.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace lmp::md {

NeighborBuilder::NeighborBuilder(double neighbor_cutoff) : cutoff_(neighbor_cutoff) {
  if (neighbor_cutoff <= 0) throw std::invalid_argument("cutoff must be > 0");
}

NeighborList NeighborBuilder::build_half(const Atoms& atoms, HalfRule rule) {
  return build(atoms, rule == HalfRule::kAllGhosts ? Keep::kHalfAllGhosts
                                                   : Keep::kHalfTieBreak);
}

NeighborList NeighborBuilder::build_full(const Atoms& atoms) {
  return build(atoms, Keep::kFull);
}

NeighborList NeighborBuilder::build(const Atoms& atoms, Keep keep) {
  const int nlocal = atoms.nlocal();
  NeighborList list;
  list.full = keep == Keep::kFull;
  list.offsets.assign(static_cast<std::size_t>(nlocal) + 1, 0);
  if (nlocal == 0) return list;

  rank_atoms(atoms);
  bin_atoms(atoms);
  switch (keep) {
    case Keep::kFull:
      scan_rows<Keep::kFull>(atoms, list);
      break;
    case Keep::kHalfAllGhosts:
      scan_rows<Keep::kHalfAllGhosts>(atoms, list);
      break;
    case Keep::kHalfTieBreak:
      scan_rows<Keep::kHalfTieBreak>(atoms, list);
      break;
  }
  order_rows(atoms.ntotal(), list);
  return list;
}

void NeighborBuilder::rank_atoms(const Atoms& atoms) {
  // One sort per build by (tag, then coords — a wrapped atom can appear
  // as several same-tag periodic images). Every row is later put in this
  // order, so the force accumulation order, and therefore the
  // trajectory, is bitwise identical across comm variants whatever order
  // they placed the ghosts in. The index only breaks exact duplicates.
  const int ntotal = atoms.ntotal();
  const double* x = atoms.x();
  order_.resize(static_cast<std::size_t>(ntotal));
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const std::int64_t ta = atoms.tag(a);
    const std::int64_t tb = atoms.tag(b);
    if (ta != tb) return ta < tb;
    if (x[3 * a + 2] != x[3 * b + 2]) return x[3 * a + 2] < x[3 * b + 2];
    if (x[3 * a + 1] != x[3 * b + 1]) return x[3 * a + 1] < x[3 * b + 1];
    if (x[3 * a] != x[3 * b]) return x[3 * a] < x[3 * b];
    return a < b;
  });
  rank_.resize(static_cast<std::size_t>(ntotal));
  for (int r = 0; r < ntotal; ++r) rank_[order_[r]] = r;
}

void NeighborBuilder::bin_atoms(const Atoms& atoms) {
  const int ntotal = atoms.ntotal();
  const double* x = atoms.x();

  // Bin extents cover every atom (ghosts stick out past the sub-box).
  double lo[3] = {x[0], x[1], x[2]};
  double hi[3] = {x[0], x[1], x[2]};
  for (int i = 1; i < ntotal; ++i) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], x[3 * i + d]);
      hi[d] = std::max(hi[d], x[3 * i + d]);
    }
  }
  // Bins at least half a cutoff wide: a pair under the cutoff lies at
  // most two bins apart on each axis.
  double inv_size[3];
  for (int d = 0; d < 3; ++d) {
    const double extent = std::max(hi[d] - lo[d], 1e-12);
    dims_[d] = std::max(1, static_cast<int>(extent / (0.5 * cutoff_)));
    inv_size[d] = dims_[d] / extent * (1.0 - 1e-12);
  }
  const std::size_t nbins = static_cast<std::size_t>(dims_[0]) *
                            static_cast<std::size_t>(dims_[1]) *
                            static_cast<std::size_t>(dims_[2]);

  // Counting sort by bin, ascending atom index within a bin.
  bin_start_.assign(nbins + 1, 0);
  bin_of_.resize(static_cast<std::size_t>(ntotal));
  for (int i = 0; i < ntotal; ++i) {
    int c[3];
    for (int d = 0; d < 3; ++d) {
      c[d] = std::min(static_cast<int>((x[3 * i + d] - lo[d]) * inv_size[d]),
                      dims_[d] - 1);
    }
    bin_of_[i] = c[0] + dims_[0] * (c[1] + dims_[1] * c[2]);
    ++bin_start_[bin_of_[i] + 1];
  }
  std::partial_sum(bin_start_.begin(), bin_start_.end(), bin_start_.begin());
  for (auto* v : {&bx_, &by_, &bz_}) v->resize(static_cast<std::size_t>(ntotal));
  bidx_.resize(static_cast<std::size_t>(ntotal));
  brank_.resize(static_cast<std::size_t>(ntotal));
  for (int i = 0; i < ntotal; ++i) {
    const int k = bin_start_[bin_of_[i]]++;
    bx_[k] = x[3 * i];
    by_[k] = x[3 * i + 1];
    bz_[k] = x[3 * i + 2];
    bidx_[k] = i;
    brank_[k] = rank_[i];
  }
  // The fill advanced each start to its bin's end; shift them back.
  for (std::size_t b = nbins; b > 0; --b) bin_start_[b] = bin_start_[b - 1];
  bin_start_[0] = 0;
}

template <NeighborBuilder::Keep K>
void NeighborBuilder::scan_rows(const Atoms& atoms, NeighborList& list) {
  const int nlocal = atoms.nlocal();
  const double* x = atoms.x();
  const double cut2 = cutoff_ * cutoff_;
  const int nx = dims_[0];
  const int ny = dims_[1];
  const int nz = dims_[2];
  // Rows are written as neighbor ranks straight into the list, sized
  // for the previous build's pair count plus a margin.
  list.neigh.resize(pairs_hint_ + pairs_hint_ / 16 + 64);
  std::size_t n = 0;
  for (int i = 0; i < nlocal; ++i) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    const int ix = bin_of_[i] % nx;
    const int iy = bin_of_[i] / nx % ny;
    const int iz = bin_of_[i] / nx / ny;
    const int x0 = std::max(ix - 2, 0);
    const int x1 = std::min(ix + 2, nx - 1);
    for (int z = std::max(iz - 2, 0); z <= std::min(iz + 2, nz - 1); ++z) {
      for (int y = std::max(iy - 2, 0); y <= std::min(iy + 2, ny - 1); ++y) {
        // The x-row's bins are contiguous in the sorted arrays.
        const int row = nx * (y + ny * z);
        const auto kb = static_cast<std::size_t>(bin_start_[row + x0]);
        const auto ke = static_cast<std::size_t>(bin_start_[row + x1 + 1]);
        if (n + (ke - kb) > list.neigh.size()) {
          list.neigh.resize(std::max(list.neigh.size() * 3 / 2, n + (ke - kb)));
        }
        int* out = list.neigh.data();
        for (std::size_t k = kb; k < ke; ++k) {
          // Branch-free accept: every candidate is written, and the
          // cursor advances only past the kept ones.
          const int j = bidx_[k];
          const double ddx = xi - bx_[k];
          const double ddy = yi - by_[k];
          const double ddz = zi - bz_[k];
          bool keep = ddx * ddx + ddy * ddy + ddz * ddz < cut2;
          if constexpr (K == Keep::kFull) {
            keep &= j != i;
          } else if constexpr (K == Keep::kHalfAllGhosts) {
            keep &= j > i;  // local-local once; every ghost has j > i
          } else {
            // The LAMMPS coordinate tie-break: keep a ghost pair when
            // the ghost is greater in z, then y, then x.
            const bool wins =
                (bz_[k] > zi) |
                ((bz_[k] == zi) & ((by_[k] > yi) | ((by_[k] == yi) & (bx_[k] > xi))));
            keep &= (j > i) & ((j < nlocal) | wins);
          }
          out[n] = brank_[k];
          n += static_cast<std::size_t>(keep);
        }
      }
    }
    list.offsets[i + 1] = static_cast<int>(n);
  }
}

void NeighborBuilder::order_rows(int ntotal, NeighborList& list) {
  // Put every row in canonical order without sorting it: bucket the
  // pairs by their neighbor's rank (each bucket lists rows in ascending
  // order), then walk the buckets in rank order and deal each pair to
  // the next free slot of its row, replacing the rank by the atom.
  const int nlocal = static_cast<int>(list.offsets.size()) - 1;
  const auto npairs = static_cast<std::size_t>(list.offsets[nlocal]);
  pairs_hint_ = npairs;
  list.neigh.resize(npairs);
  bucket_.assign(static_cast<std::size_t>(ntotal) + 1, 0);
  for (const int r : list.neigh) ++bucket_[r + 1];
  std::partial_sum(bucket_.begin(), bucket_.end(), bucket_.begin());
  std::vector<int> by_rank(npairs);
  for (int i = 0; i < nlocal; ++i) {
    for (int p = list.offsets[i]; p < list.offsets[i + 1]; ++p) {
      by_rank[bucket_[list.neigh[p]]++] = i;
    }
  }
  // The fill advanced each bucket start to its end.
  cursor_.assign(list.offsets.begin(), list.offsets.end() - 1);
  int p = 0;
  for (int r = 0; r < ntotal; ++r) {
    for (; p < bucket_[r]; ++p) list.neigh[cursor_[by_rank[p]]++] = order_[r];
  }
}

}  // namespace lmp::md
