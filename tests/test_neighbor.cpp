#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "md/neighbor.h"
#include "util/rng.h"

namespace lmp::md {
namespace {

/// Random atoms in [0, L)^3 with a ghost fringe.
Atoms random_atoms(int nlocal, int nghost, double box, std::uint64_t seed) {
  util::Rng rng(seed);
  Atoms a;
  a.reserve_capacity(nlocal + nghost + 8);
  for (int i = 0; i < nlocal; ++i) {
    a.add_local({rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)},
                {0, 0, 0}, i);
  }
  for (int g = 0; g < nghost; ++g) {
    // Ghosts live in a shell of thickness 1 around the box.
    const double side = rng.uniform_index(3);
    Vec3 p{rng.uniform(-1, box + 1), rng.uniform(-1, box + 1),
           rng.uniform(-1, box + 1)};
    p[static_cast<std::size_t>(side)] = rng.uniform() < 0.5
                                            ? rng.uniform(-1.0, 0.0)
                                            : rng.uniform(box, box + 1.0);
    a.add_ghost(p, 1000 + g);
  }
  return a;
}

double dist2(const Atoms& a, int i, int j) {
  const Vec3 d = a.pos(i) - a.pos(j);
  return norm_sq(d);
}

std::set<std::pair<int, int>> as_pairs(const NeighborList& l) {
  std::set<std::pair<int, int>> out;
  for (int i = 0; i + 1 < static_cast<int>(l.offsets.size()); ++i) {
    for (int k = l.offsets[i]; k < l.offsets[i + 1]; ++k) {
      out.insert({i, l.neigh[static_cast<std::size_t>(k)]});
    }
  }
  return out;
}

TEST(Neighbor, FullListMatchesBruteForce) {
  const Atoms a = random_atoms(60, 20, 5.0, 1);
  const double cut = 1.3;
  NeighborBuilder b(cut);
  const auto pairs = as_pairs(b.build_full(a));

  for (int i = 0; i < a.nlocal(); ++i) {
    for (int j = 0; j < a.ntotal(); ++j) {
      if (i == j) continue;
      const bool within = dist2(a, i, j) < cut * cut;
      EXPECT_EQ(pairs.count({i, j}) == 1, within)
          << "pair " << i << "," << j;
    }
  }
}

TEST(Neighbor, HalfListLocalPairsOnce) {
  const Atoms a = random_atoms(80, 0, 5.0, 2);
  NeighborBuilder b(1.5);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kCoordTieBreak));
  for (const auto& [i, j] : pairs) {
    EXPECT_LT(i, j);
    EXPECT_EQ(pairs.count({j, i}), 0u);
  }
}

TEST(Neighbor, HalfListCountsHalfOfFull) {
  const Atoms a = random_atoms(100, 0, 5.0, 3);
  NeighborBuilder b(1.5);
  EXPECT_EQ(2 * b.build_half(a, HalfRule::kCoordTieBreak).total_pairs(),
            b.build_full(a).total_pairs());
}

TEST(Neighbor, TieBreakKeepsGhostPairWhenGhostGreater) {
  Atoms a;
  a.reserve_capacity(4);
  a.add_local({1.0, 1.0, 1.0}, {0, 0, 0}, 0);
  a.add_ghost({1.0, 1.0, 1.5}, 10);  // greater z: kept
  a.add_ghost({1.0, 1.0, 0.5}, 11);  // lower z: dropped
  NeighborBuilder b(1.0);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kCoordTieBreak));
  EXPECT_EQ(pairs.count({0, 1}), 1u);
  EXPECT_EQ(pairs.count({0, 2}), 0u);
}

TEST(Neighbor, TieBreakFallsThroughZyx) {
  Atoms a;
  a.reserve_capacity(4);
  a.add_local({1.0, 1.0, 1.0}, {0, 0, 0}, 0);
  a.add_ghost({1.5, 1.0, 1.0}, 10);  // same z, same y, greater x: kept
  a.add_ghost({0.5, 1.0, 1.0}, 11);  // same z, same y, lower x: dropped
  NeighborBuilder b(1.0);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kCoordTieBreak));
  EXPECT_EQ(pairs.count({0, 1}), 1u);
  EXPECT_EQ(pairs.count({0, 2}), 0u);
}

TEST(Neighbor, AllGhostsRuleKeepsEveryGhostPair) {
  const Atoms a = random_atoms(40, 30, 4.0, 5);
  const double cut = 1.2;
  NeighborBuilder b(cut);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kAllGhosts));
  for (int i = 0; i < a.nlocal(); ++i) {
    for (int j = a.nlocal(); j < a.ntotal(); ++j) {
      EXPECT_EQ(pairs.count({i, j}) == 1, dist2(a, i, j) < cut * cut);
    }
  }
}

TEST(Neighbor, GhostsNeverOwnLists) {
  const Atoms a = random_atoms(30, 30, 4.0, 6);
  NeighborBuilder b(1.2);
  const NeighborList l = b.build_full(a);
  EXPECT_EQ(static_cast<int>(l.offsets.size()), a.nlocal() + 1);
}

TEST(Neighbor, EmptySystem) {
  Atoms a;
  a.reserve_capacity(4);
  NeighborBuilder b(1.0);
  const NeighborList l = b.build_full(a);
  EXPECT_EQ(l.total_pairs(), 0);
}

TEST(Neighbor, CountMatchesDensityEstimate) {
  // At uniform density, <neighbors> ~ 4/3 pi r^3 rho.
  const int n = 4000;
  const double box = 10.0;
  const Atoms a = random_atoms(n, 0, box, 7);
  const double cut = 1.5;
  NeighborBuilder b(cut);
  const NeighborList l = b.build_full(a);
  const double rho = n / (box * box * box);
  const double expected = 4.0 / 3.0 * M_PI * cut * cut * cut * rho;
  // Boundary atoms see fewer neighbors (no periodic ghosts here), so the
  // average sits below the bulk estimate but within ~40%.
  const double avg = static_cast<double>(l.total_pairs()) / n;
  EXPECT_GT(avg, 0.55 * expected);
  EXPECT_LT(avg, 1.05 * expected);
}

/// The rows an O(N^2) scan keeps for local atom i, in canonical order:
/// by neighbor tag, then z, y, x (periodic images share a tag).
std::vector<int> oracle_row(const Atoms& a, int i, double cut, bool full,
                            HalfRule rule) {
  const double* x = a.x();
  std::vector<int> row;
  for (int j = 0; j < a.ntotal(); ++j) {
    if (j == i) continue;
    if (!full) {
      if (j < a.nlocal() && j < i) continue;
      const bool ghost_wins =
          x[3 * j + 2] != x[3 * i + 2]   ? x[3 * j + 2] > x[3 * i + 2]
          : x[3 * j + 1] != x[3 * i + 1] ? x[3 * j + 1] > x[3 * i + 1]
                                         : x[3 * j] > x[3 * i];
      if (j >= a.nlocal() && rule == HalfRule::kCoordTieBreak && !ghost_wins) {
        continue;
      }
    }
    const double dx = x[3 * i] - x[3 * j];
    const double dy = x[3 * i + 1] - x[3 * j + 1];
    const double dz = x[3 * i + 2] - x[3 * j + 2];
    if (dx * dx + dy * dy + dz * dz < cut * cut) row.push_back(j);
  }
  std::sort(row.begin(), row.end(), [&](int p, int q) {
    if (a.tag(p) != a.tag(q)) return a.tag(p) < a.tag(q);
    for (int d = 2; d >= 0; --d) {
      if (x[3 * p + d] != x[3 * q + d]) return x[3 * p + d] < x[3 * q + d];
    }
    return false;
  });
  return row;
}

/// Locals at `pos`, plus every periodic image (same tag, shifted by
/// +-L on any axes) that lies within `fringe` of the [0, L)^3 box.
Atoms with_images(const std::vector<Vec3>& pos, double L, double fringe) {
  Atoms a;
  a.reserve_capacity(static_cast<int>(pos.size()) * 27);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    a.add_local(pos[i], {0, 0, 0}, static_cast<std::int64_t>(i) + 1);
  }
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (int s = 0; s < 27; ++s) {
      if (s == 13) continue;  // the original
      const Vec3 p = pos[i] + Vec3{(s % 3 - 1) * L, (s / 3 % 3 - 1) * L,
                                   (s / 9 - 1) * L};
      bool near = true;
      for (int d = 0; d < 3; ++d) {
        const auto k = static_cast<std::size_t>(d);
        near = near && p[k] > -fringe && p[k] < L + fringe;
      }
      if (near) a.add_ghost(p, static_cast<std::int64_t>(i) + 1);
    }
  }
  return a;
}

TEST(Neighbor, RowsMatchCanonicalBruteForce) {
  struct Case {
    const char* name;
    Atoms atoms;
    double cut;
  };
  std::vector<Case> cases;
  util::Rng rng(11);
  {
    // Ghosts that are same-tag periodic images of the locals.
    std::vector<Vec3> pos;
    for (int i = 0; i < 120; ++i) {
      pos.push_back({rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 4)});
    }
    cases.push_back({"periodic images", with_images(pos, 4.0, 1.3), 1.3});
  }
  {
    // An extent (z) thinner than one bin.
    std::vector<Vec3> pos;
    for (int i = 0; i < 80; ++i) {
      pos.push_back({rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 0.1)});
    }
    Atoms a = with_images(pos, 5.0, 0.0);
    for (int g = 0; g < 40; ++g) {
      a.add_ghost({rng.uniform(-1, 6), rng.uniform(-1, 0), rng.uniform(0, 0.1)},
                  500 + g);
    }
    cases.push_back({"thin extent", std::move(a), 1.2});
  }
  {
    // A cutoff longer than the whole extent: every pair is in range.
    cases.push_back({"cutoff beyond extent", random_atoms(30, 20, 1.0, 12), 5.0});
  }
  {
    // Atoms exactly on bin edges: a grid at multiples of cutoff/2, so
    // axis-aligned neighbors sit exactly at the cutoff (dropped: <).
    std::vector<Vec3> pos;
    for (int z = 0; z < 5; ++z) {
      for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 5; ++x) pos.push_back({0.5 * x, 0.5 * y, 0.5 * z});
      }
    }
    cases.push_back({"bin edges", with_images(pos, 2.5, 1.0), 1.0});
  }
  {
    // A single local among ghosts.
    Atoms a = random_atoms(1, 40, 2.0, 13);
    cases.push_back({"single local", std::move(a), 1.5});
  }

  const auto check = [](NeighborBuilder& b, const Case& c, double cut) {
    for (int mode = 0; mode < 3; ++mode) {
      const bool full = mode == 0;
      const HalfRule rule =
          mode == 1 ? HalfRule::kCoordTieBreak : HalfRule::kAllGhosts;
      const NeighborList l =
          full ? b.build_full(c.atoms) : b.build_half(c.atoms, rule);
      ASSERT_EQ(static_cast<int>(l.offsets.size()), c.atoms.nlocal() + 1);
      EXPECT_EQ(l.full, full);
      for (int i = 0; i < c.atoms.nlocal(); ++i) {
        const std::vector<int> row(l.neigh.begin() + l.offsets[i],
                                   l.neigh.begin() + l.offsets[i + 1]);
        EXPECT_EQ(row, oracle_row(c.atoms, i, cut, full, rule))
            << c.name << ", cutoff " << cut << ", mode " << mode << ", row "
            << i;
      }
    }
  };
  // One builder per case, and one whose scratch is carried across every
  // case's (very different) atom sets.
  NeighborBuilder shared(1.3);
  for (const Case& c : cases) {
    NeighborBuilder own(c.cut);
    check(own, c, c.cut);
    check(shared, c, 1.3);
  }
}

TEST(Neighbor, InvalidCutoffThrows) {
  EXPECT_THROW(NeighborBuilder(0.0), std::invalid_argument);
  EXPECT_THROW(NeighborBuilder(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace lmp::md
