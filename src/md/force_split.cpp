#include "md/force_split.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace lmp::md {

ForceGroups ForceGroups::build(const Atoms& atoms, const geom::Box& sub,
                               double rc) {
  ForceGroups out;
  out.assign(atoms, sub, rc);
  return out;
}

void ForceGroups::assign(const Atoms& atoms, const geom::Box& sub, double rc) {
  if (rc <= 0) throw std::invalid_argument("ForceGroups: rc must be > 0");
  nlocal = atoms.nlocal();
  fp_built_ = false;
  const double* x = atoms.x();

  // 64 possible masks (each axis: none/low/high/both); bucket indices,
  // then emit non-empty buckets in ascending mask order. Ascending local
  // index within a bucket falls out of the forward scan.
  for (auto& b : buckets_) b.clear();
  for (int i = 0; i < nlocal; ++i) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    int mask = 0;
    if (xi < sub.lo.x + rc) mask |= kLowX;
    if (xi > sub.hi.x - rc) mask |= kHighX;
    if (yi < sub.lo.y + rc) mask |= kLowY;
    if (yi > sub.hi.y - rc) mask |= kHighY;
    if (zi < sub.lo.z + rc) mask |= kLowZ;
    if (zi > sub.hi.z - rc) mask |= kHighZ;
    buckets_[static_cast<std::size_t>(mask)].push_back(i);
  }
  std::size_t ng = 0;
  for (int m = 0; m < 64; ++m) {
    const std::vector<int>& b = buckets_[static_cast<std::size_t>(m)];
    if (b.empty()) continue;
    if (ng == groups.size()) groups.emplace_back();
    groups[ng].mask = m;
    groups[ng].atoms.assign(b.begin(), b.end());
    ++ng;
  }
  groups.resize(ng);
}

void ForceGroups::build_footprints(const NeighborList& list, bool newton,
                                   int ntotal) {
  if (ntotal < nlocal) {
    throw std::invalid_argument("ForceGroups: ntotal below nlocal");
  }
  fp_index_.clear();
  fp_offsets_.clear();
  fp_offsets_.push_back(0);
  // One bit per local and ghost index: a group marks what it writes,
  // then emits the set bits in ascending order, clearing them as it
  // goes, so the bitmap is all-zero again for the next group.
  fp_bits_.assign((static_cast<std::size_t>(ntotal) + 63) / 64, 0);
  const bool partners = !list.full;
  for (int g = 0; g < ngroups(); ++g) {
    std::size_t wlo = fp_bits_.size();
    std::size_t whi = 0;
    const auto mark = [&](int j) {
      const std::size_t w = static_cast<std::size_t>(j) >> 6;
      fp_bits_[w] |= std::uint64_t{1} << (j & 63);
      wlo = std::min(wlo, w);
      whi = std::max(whi, w + 1);
    };
    const std::vector<int>& rows = groups[static_cast<std::size_t>(g)].atoms;
    for (const int i : rows) mark(i);
    // Exactly the partner writes of the kernels' half-list branch.
    if (partners) {
      for (const int i : rows) {
        for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
          const int j = list.neigh[static_cast<std::size_t>(k)];
          if (newton || j < nlocal) mark(j);
        }
      }
    }
    for (std::size_t w = wlo; w < whi; ++w) {
      for (std::uint64_t bits = fp_bits_[w]; bits != 0; bits &= bits - 1) {
        fp_index_.push_back(static_cast<int>(64 * w) + std::countr_zero(bits));
      }
      fp_bits_[w] = 0;
    }
    fp_offsets_.push_back(static_cast<int>(fp_index_.size()));
  }
  fp_built_ = true;
  fp_full_ = list.full;
  fp_newton_ = newton;
  fp_ntotal_ = ntotal;
}

bool group_reads_dir(int mask, int dx, int dy, int dz) {
  if (dx == -1 && !(mask & kLowX)) return false;
  if (dx == +1 && !(mask & kHighX)) return false;
  if (dy == -1 && !(mask & kLowY)) return false;
  if (dy == +1 && !(mask & kHighY)) return false;
  if (dz == -1 && !(mask & kLowZ)) return false;
  if (dz == +1 && !(mask & kHighZ)) return false;
  return true;
}

}  // namespace lmp::md
