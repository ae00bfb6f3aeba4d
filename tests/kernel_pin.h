#pragma once

// Absolute bit pins for the pair kernels: a fixed, perturbed periodic fcc
// box, the three ways a force evaluation is run, and an FNV-1a hash over
// the bit patterns of what comes out. The golden hashes live with the
// tests (test_lj.cpp, test_eam.cpp).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "geom/box.h"
#include "geom/lattice.h"
#include "md/force_split.h"
#include "md/neighbor.h"
#include "md/potential.h"

namespace lmp::md::pin {

/// 64-bit FNV-1a over the IEEE bit patterns of doubles, byte by byte.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(double v) {
    const auto b = std::bit_cast<std::uint64_t>(v);
    for (int s = 0; s < 64; s += 8) {
      h ^= (b >> s) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(const double* v, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) add(v[k]);
  }
};

/// `cells`^3 fcc cells, every atom moved by up to `amp` per axis, plus a
/// ghost image of every atom within `rc` of the box on all 26 sides.
/// The perturbation is drawn from raw mt19937 words (whose sequence the
/// standard fixes), not a distribution (whose algorithm it does not).
struct PeriodicBox {
  Atoms atoms;
  std::vector<int> owner;  ///< per ghost, in ghost order: its local image
  geom::Box box;
};

inline PeriodicBox perturbed_fcc(const geom::FccLattice& lat, int cells,
                                 double amp, double rc) {
  PeriodicBox pb;
  pb.box = lat.box_for(cells, cells, cells);
  const std::vector<Vec3> sites = lat.generate(cells, cells, cells);
  const Vec3 len = pb.box.extent();
  std::mt19937 rng(20240611u);
  const auto jitter = [&] {
    return amp * (2.0 * (static_cast<double>(rng()) + 0.5) / 4294967296.0 - 1.0);
  };
  std::vector<Vec3> pos;
  for (const Vec3& s : sites) {
    const double jx = jitter(), jy = jitter(), jz = jitter();
    pos.push_back(pb.box.wrap({s.x + jx, s.y + jy, s.z + jz}));
  }
  std::vector<Vec3> ghosts;
  for (int sx = -1; sx <= 1; ++sx) {
    for (int sy = -1; sy <= 1; ++sy) {
      for (int sz = -1; sz <= 1; ++sz) {
        if (sx == 0 && sy == 0 && sz == 0) continue;
        for (std::size_t i = 0; i < pos.size(); ++i) {
          const Vec3 q{pos[i].x + sx * len.x, pos[i].y + sy * len.y,
                       pos[i].z + sz * len.z};
          const auto near = [&](double v, double lo, double hi) {
            return v >= lo - rc && v < hi + rc;
          };
          if (near(q.x, pb.box.lo.x, pb.box.hi.x) &&
              near(q.y, pb.box.lo.y, pb.box.hi.y) &&
              near(q.z, pb.box.lo.z, pb.box.hi.z)) {
            ghosts.push_back(q);
            pb.owner.push_back(static_cast<int>(i));
          }
        }
      }
    }
  }
  pb.atoms.reserve_capacity(static_cast<int>(pos.size() + ghosts.size()));
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pb.atoms.add_local(pos[i], {0, 0, 0}, static_cast<std::int64_t>(i));
  }
  for (std::size_t g = 0; g < ghosts.size(); ++g) {
    pb.atoms.add_ghost(ghosts[g], pb.owner[g]);
  }
  return pb;
}

/// The mid-pair ghost communication of a one-rank periodic box: every
/// ghost is an image of a local atom, visited in ghost order.
class ImageComm final : public GhostDataComm {
 public:
  ImageComm(const std::vector<int>& owner, int nlocal)
      : owner_(owner), nlocal_(nlocal) {}
  void reverse_add(double* v) override {
    for (std::size_t g = 0; g < owner_.size(); ++g) {
      v[owner_[g]] += v[nlocal_ + static_cast<int>(g)];
      v[nlocal_ + static_cast<int>(g)] = 0.0;
    }
  }
  void forward(double* v) override {
    for (std::size_t g = 0; g < owner_.size(); ++g) {
      v[nlocal_ + static_cast<int>(g)] = v[owner_[g]];
    }
  }

 private:
  const std::vector<int>& owner_;
  int nlocal_;
};

/// Hash of one evaluation: every force component of locals and ghosts,
/// then energy and virial.
inline std::uint64_t hash_eval(const Atoms& a, const ForceResult& r,
                               Fnv1a h = {}) {
  h.add(a.f(), 3 * static_cast<std::size_t>(a.ntotal()));
  h.add(r.energy);
  h.add(r.virial);
  return h.h;
}

/// The three evaluations the kernels serve, each from zeroed forces:
/// compute() on a half list with Newton on, compute() on a full list
/// with Newton off, and the split path (half list, Newton on) over the
/// box's band groups (more than one). `hash` is called with each
/// evaluation's result while the atoms and the potential still hold it.
template <class Hash>
void run_three(Potential& pot, PeriodicBox& pb, double rc, Hash&& hash) {
  Atoms& a = pb.atoms;
  ImageComm comm(pb.owner, a.nlocal());
  NeighborBuilder nb(rc);

  const NeighborList half = nb.build_half(a, HalfRule::kCoordTieBreak);
  a.zero_forces();
  hash(pot.compute(a, half, true, &comm));

  const NeighborList full = nb.build_full(a);
  a.zero_forces();
  hash(pot.compute(a, full, false, &comm));

  ForceGroups fg = ForceGroups::build(a, pb.box, rc);
  ASSERT_GT(fg.ngroups(), 1);
  fg.build_footprints(half, true, a.ntotal());
  a.zero_forces();
  pot.split_begin(a, half, true, &fg);
  for (int pass = 0; pass < pot.split_passes(); ++pass) {
    for (int g = 0; g < fg.ngroups(); ++g) pot.split_group(pass, g);
    pot.split_join(pass, &comm);
  }
  hash(pot.split_finish());
}

}  // namespace lmp::md::pin
