#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "geom/box.h"
#include "md/eam.h"
#include "md/eam_table.h"
#include "md/force_split.h"
#include "md/lj.h"
#include "md/neighbor.h"

namespace lmp::md {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Pseudo-random cluster of `n` local atoms inside [0, span]^3.
Atoms cluster(int n, double span, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, span);
  Atoms a;
  a.reserve_capacity(n);
  for (int i = 0; i < n; ++i) {
    a.add_local({u(rng), u(rng), u(rng)}, {0, 0, 0}, i);
  }
  return a;
}

/// `nloc` local atoms in the sub-box [0, span]^3 plus `nghost` ghosts in
/// slabs of width `shell` beyond its high-x, high-y and high-z faces (the
/// half-shell halo the p2p exchange imports).
Atoms halo_cluster(int nloc, int nghost, double span, double shell,
                   std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> in(0.0, span);
  std::uniform_real_distribution<double> out(span, span + shell);
  Atoms a;
  a.reserve_capacity(nloc + nghost);
  for (int i = 0; i < nloc; ++i) {
    a.add_local({in(rng), in(rng), in(rng)}, {0, 0, 0}, i);
  }
  for (int i = 0; i < nghost; ++i) {
    Vec3 p{in(rng), in(rng), in(rng)};
    const int axis = i % 3;
    (axis == 0 ? p.x : axis == 1 ? p.y : p.z) = out(rng);
    a.add_ghost(p, nloc + i);
  }
  return a;
}

/// Move every atom (locals and ghosts) by up to `amp` per axis; the same
/// seed moves two identical systems identically.
void jiggle(Atoms& a, double amp, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-amp, amp);
  for (int i = 0; i < a.ntotal(); ++i) {
    const Vec3 p = a.pos(i);
    a.set_pos(i, {p.x + u(rng), p.y + u(rng), p.z + u(rng)});
  }
}

/// Brute-force footprint of group `g`: its rows, plus on a half list the
/// partners the kernels write (newton, or a local partner).
std::vector<int> brute_footprint(const ForceGroups& fg, int g,
                                 const NeighborList& list, bool newton) {
  std::set<int> s;
  for (const int i : fg.groups[static_cast<std::size_t>(g)].atoms) {
    s.insert(i);
    if (list.full) continue;
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      if (newton || j < fg.nlocal) s.insert(j);
    }
  }
  return {s.begin(), s.end()};
}

/// One full split evaluation: zero forces, every group of every pass in
/// ascending order, the joins.
ForceResult split_eval(Potential& pot, Atoms& at, const NeighborList& l,
                       bool newton, const ForceGroups& fg) {
  at.zero_forces();
  pot.split_begin(at, l, newton, &fg);
  for (int pass = 0; pass < pot.split_passes(); ++pass) {
    for (int g = 0; g < fg.ngroups(); ++g) pot.split_group(pass, g);
    pot.split_join(pass, nullptr);
  }
  return pot.split_finish();
}

void expect_same_bits(const Atoms& a, const ForceResult& ra, const Atoms& b,
                      const ForceResult& rb) {
  ASSERT_EQ(a.ntotal(), b.ntotal());
  for (int k = 0; k < 3 * a.ntotal(); ++k) {
    ASSERT_EQ(bits(a.f()[k]), bits(b.f()[k])) << "force component " << k;
  }
  EXPECT_EQ(bits(ra.energy), bits(rb.energy));
  EXPECT_EQ(bits(ra.virial), bits(rb.virial));
}

/// The split forces equal the monolithic kernel's up to reassociation:
/// a footprint that misses an entry the rows write would drop that
/// group's contribution outright.
void expect_near_monolithic(const Atoms& split, Potential& pot,
                            Atoms& mono, const NeighborList& l, bool newton) {
  mono.zero_forces();
  pot.compute(mono, l, newton, nullptr);
  double scale = 1.0;
  for (int k = 0; k < 3 * mono.ntotal(); ++k) {
    scale = std::max(scale, std::abs(mono.f()[k]));
  }
  for (int k = 0; k < 3 * mono.ntotal(); ++k) {
    ASSERT_NEAR(split.f()[k], mono.f()[k], 1e-10 * scale)
        << "force component " << k;
  }
}

EamTable cu_table() {
  return parse_funcfl(to_funcfl(make_cu_like_table(2000, 2000, 4.95)));
}

TEST(ForceGroups, InteriorAtomsFormSingleMaskZeroGroup) {
  Atoms a = cluster(40, 4.0, 7u);
  // Sub-box far larger than the cluster: nothing is within rc of a face.
  const geom::Box sub{{-100, -100, -100}, {100, 100, 100}};
  const ForceGroups fg = ForceGroups::build(a, sub, 2.5);
  ASSERT_EQ(fg.ngroups(), 1);
  EXPECT_EQ(fg.groups[0].mask, 0);
  EXPECT_EQ(static_cast<int>(fg.groups[0].atoms.size()), a.nlocal());
  EXPECT_EQ(fg.nlocal, a.nlocal());
}

TEST(ForceGroups, BandClassificationAndCanonicalOrder) {
  Atoms a;
  a.reserve_capacity(8);
  // Box [0,10]^3, rc 1: one interior atom, one in each x band, one corner.
  a.add_local({5, 5, 5}, {0, 0, 0}, 0);      // interior
  a.add_local({0.5, 5, 5}, {0, 0, 0}, 1);    // low-x band
  a.add_local({9.5, 5, 5}, {0, 0, 0}, 2);    // high-x band
  a.add_local({0.5, 0.5, 5}, {0, 0, 0}, 3);  // low-x + low-y
  a.add_local({6, 5, 5}, {0, 0, 0}, 4);      // interior (second)
  const geom::Box sub{{0, 0, 0}, {10, 10, 10}};
  const ForceGroups fg = ForceGroups::build(a, sub, 1.0);

  ASSERT_EQ(fg.ngroups(), 4);
  // Ascending mask order, ascending atom indices inside each group.
  EXPECT_EQ(fg.groups[0].mask, 0);
  EXPECT_EQ(fg.groups[0].atoms, (std::vector<int>{0, 4}));
  EXPECT_EQ(fg.groups[1].mask, kLowX);
  EXPECT_EQ(fg.groups[1].atoms, (std::vector<int>{1}));
  EXPECT_EQ(fg.groups[2].mask, kHighX);
  EXPECT_EQ(fg.groups[2].atoms, (std::vector<int>{2}));
  EXPECT_EQ(fg.groups[3].mask, kLowX | kLowY);
  EXPECT_EQ(fg.groups[3].atoms, (std::vector<int>{3}));
}

TEST(ForceGroups, InvalidCutoffThrows) {
  Atoms a = cluster(2, 1.0, 1u);
  const geom::Box sub{{0, 0, 0}, {1, 1, 1}};
  EXPECT_THROW(ForceGroups::build(a, sub, 0.0), std::invalid_argument);
}

TEST(GroupReadsDir, MatchesBandMaskSemantics) {
  // Interior reads no direction at all.
  EXPECT_FALSE(group_reads_dir(0, 1, 0, 0));
  EXPECT_FALSE(group_reads_dir(0, -1, 1, 0));
  // A high-x band atom reads the high-x face, nothing else.
  EXPECT_TRUE(group_reads_dir(kHighX, 1, 0, 0));
  EXPECT_FALSE(group_reads_dir(kHighX, -1, 0, 0));
  EXPECT_FALSE(group_reads_dir(kHighX, 1, 1, 0));  // lacks high-y
  // A high-x + high-y edge atom reads the face dirs and their edge.
  const int edge = kHighX | kHighY;
  EXPECT_TRUE(group_reads_dir(edge, 1, 0, 0));
  EXPECT_TRUE(group_reads_dir(edge, 0, 1, 0));
  EXPECT_TRUE(group_reads_dir(edge, 1, 1, 0));
  EXPECT_FALSE(group_reads_dir(edge, 1, -1, 0));
  EXPECT_FALSE(group_reads_dir(edge, 1, 1, 1));  // lacks high-z
}

TEST(LjSplit, SingleGroupMatchesMonolithicBitwise) {
  // One all-interior group runs the identical loop over the identical
  // rows into a zeroed buffer: forces, energy and virial must match the
  // monolithic kernel bit for bit.
  LennardJones lj_a(1.0, 1.0, 2.5), lj_b(1.0, 1.0, 2.5);
  Atoms a = cluster(60, 5.0, 42u);
  Atoms b = cluster(60, 5.0, 42u);
  NeighborBuilder nb(2.8);
  const NeighborList la = nb.build_half(a, HalfRule::kCoordTieBreak);
  const NeighborList lb = nb.build_half(b, HalfRule::kCoordTieBreak);

  a.zero_forces();
  const ForceResult mono = lj_a.compute(a, la, true, nullptr);

  const geom::Box sub{{-100, -100, -100}, {100, 100, 100}};
  ForceGroups fg = ForceGroups::build(b, sub, 2.8);
  fg.build_footprints(lb, true, b.ntotal());
  ASSERT_EQ(fg.ngroups(), 1);
  b.zero_forces();
  lj_b.split_begin(b, lb, true, &fg);
  lj_b.split_group(0, 0);
  lj_b.split_join(0, nullptr);
  const ForceResult split = lj_b.split_finish();

  for (int k = 0; k < 3 * a.ntotal(); ++k) {
    ASSERT_EQ(bits(a.f()[k]), bits(b.f()[k])) << "force component " << k;
  }
  EXPECT_EQ(bits(mono.energy), bits(split.energy));
  EXPECT_EQ(bits(mono.virial), bits(split.virial));
}

TEST(LjSplit, GroupExecutionOrderDoesNotChangeBits) {
  // Groups write private buffers and the join reduces in ascending
  // order, so running split_group in any order gives identical bits —
  // the async executor's determinism argument, in miniature.
  LennardJones lj_a(1.0, 1.0, 2.5), lj_b(1.0, 1.0, 2.5);
  Atoms a = cluster(80, 6.0, 9u);
  Atoms b = cluster(80, 6.0, 9u);
  NeighborBuilder nb(2.8);
  const NeighborList la = nb.build_half(a, HalfRule::kCoordTieBreak);
  const NeighborList lb = nb.build_half(b, HalfRule::kCoordTieBreak);
  const geom::Box sub{{0, 0, 0}, {6, 6, 6}};
  ForceGroups fga = ForceGroups::build(a, sub, 2.0);
  ForceGroups fgb = ForceGroups::build(b, sub, 2.0);
  fga.build_footprints(la, true, a.ntotal());
  fgb.build_footprints(lb, true, b.ntotal());
  ASSERT_GT(fga.ngroups(), 2);

  a.zero_forces();
  lj_a.split_begin(a, la, true, &fga);
  for (int g = 0; g < fga.ngroups(); ++g) lj_a.split_group(0, g);
  lj_a.split_join(0, nullptr);
  const ForceResult fwd = lj_a.split_finish();

  b.zero_forces();
  lj_b.split_begin(b, lb, true, &fgb);
  for (int g = fgb.ngroups() - 1; g >= 0; --g) lj_b.split_group(0, g);
  lj_b.split_join(0, nullptr);
  const ForceResult rev = lj_b.split_finish();

  for (int k = 0; k < 3 * a.ntotal(); ++k) {
    ASSERT_EQ(bits(a.f()[k]), bits(b.f()[k]));
  }
  EXPECT_EQ(bits(fwd.energy), bits(rev.energy));
  EXPECT_EQ(bits(fwd.virial), bits(rev.virial));
}

TEST(EamSplit, SingleGroupForcesAndRhoBitwiseEnergyNear) {
  const EamTable table =
      parse_funcfl(to_funcfl(make_cu_like_table(2000, 2000, 4.95)));
  Eam eam_a(table), eam_b(table);
  Atoms a = cluster(40, 8.0, 11u);
  Atoms b = cluster(40, 8.0, 11u);
  NeighborBuilder nb(5.3);
  const NeighborList la = nb.build_half(a, HalfRule::kCoordTieBreak);
  const NeighborList lb = nb.build_half(b, HalfRule::kCoordTieBreak);

  a.zero_forces();
  const ForceResult mono = eam_a.compute(a, la, true, nullptr);

  const geom::Box sub{{-100, -100, -100}, {100, 100, 100}};
  ForceGroups fg = ForceGroups::build(b, sub, 5.3);
  fg.build_footprints(lb, true, b.ntotal());
  ASSERT_EQ(fg.ngroups(), 1);
  b.zero_forces();
  eam_b.split_begin(b, lb, true, &fg);
  eam_b.split_group(0, 0);
  eam_b.split_join(0, nullptr);
  eam_b.split_group(1, 0);
  eam_b.split_join(1, nullptr);
  const ForceResult split = eam_b.split_finish();

  ASSERT_EQ(eam_a.last_rho().size(), eam_b.last_rho().size());
  for (std::size_t i = 0; i < eam_a.last_rho().size(); ++i) {
    ASSERT_EQ(bits(eam_a.last_rho()[i]), bits(eam_b.last_rho()[i]));
  }
  for (int k = 0; k < 3 * a.ntotal(); ++k) {
    ASSERT_EQ(bits(a.f()[k]), bits(b.f()[k])) << "force component " << k;
  }
  // The split accumulates embedding and pair energy in separate sums
  // (different association than the interleaved monolithic loop), so
  // energy agrees to rounding, not bitwise.
  EXPECT_NEAR(split.energy, mono.energy,
              1e-12 * std::max(1.0, std::abs(mono.energy)));
  EXPECT_NEAR(split.virial, mono.virial,
              1e-12 * std::max(1.0, std::abs(mono.virial)));
}

TEST(EamSplit, GroupExecutionOrderDoesNotChangeBits) {
  const EamTable table =
      parse_funcfl(to_funcfl(make_cu_like_table(2000, 2000, 4.95)));
  Eam eam_a(table), eam_b(table);
  Atoms a = cluster(60, 9.0, 23u);
  Atoms b = cluster(60, 9.0, 23u);
  NeighborBuilder nb(5.3);
  const NeighborList la = nb.build_half(a, HalfRule::kCoordTieBreak);
  const NeighborList lb = nb.build_half(b, HalfRule::kCoordTieBreak);
  const geom::Box sub{{0, 0, 0}, {9, 9, 9}};
  ForceGroups fga = ForceGroups::build(a, sub, 3.0);
  ForceGroups fgb = ForceGroups::build(b, sub, 3.0);
  fga.build_footprints(la, true, a.ntotal());
  fgb.build_footprints(lb, true, b.ntotal());
  ASSERT_GT(fga.ngroups(), 1);

  const auto run = [](Eam& eam, Atoms& at, const NeighborList& l,
                      const ForceGroups& fg, bool reverse) {
    at.zero_forces();
    eam.split_begin(at, l, true, &fg);
    for (int pass = 0; pass < 2; ++pass) {
      if (reverse) {
        for (int g = fg.ngroups() - 1; g >= 0; --g) eam.split_group(pass, g);
      } else {
        for (int g = 0; g < fg.ngroups(); ++g) eam.split_group(pass, g);
      }
      eam.split_join(pass, nullptr);
    }
    return eam.split_finish();
  };
  const ForceResult fwd = run(eam_a, a, la, fga, false);
  const ForceResult rev = run(eam_b, b, lb, fgb, true);

  for (int k = 0; k < 3 * a.ntotal(); ++k) {
    ASSERT_EQ(bits(a.f()[k]), bits(b.f()[k]));
  }
  EXPECT_EQ(bits(fwd.energy), bits(rev.energy));
  EXPECT_EQ(bits(fwd.virial), bits(rev.virial));
}

TEST(ForceGroups, FootprintsMatchBruteForce) {
  // Half list with Newton on and off, and a full list: each group's
  // footprint is exactly the set of entries its rows can write.
  Atoms a = halo_cluster(120, 80, 7.0, 2.8, 5u);
  const geom::Box sub{{0, 0, 0}, {7, 7, 7}};
  NeighborBuilder nb(2.8);
  const NeighborList half = nb.build_half(a, HalfRule::kAllGhosts);
  const NeighborList full = nb.build_full(a);
  struct Case {
    const NeighborList* list;
    bool newton;
  };
  for (const Case c : {Case{&half, true}, Case{&half, false},
                       Case{&full, false}}) {
    ForceGroups fg = ForceGroups::build(a, sub, 2.8);
    ASSERT_GE(fg.ngroups(), 3);
    fg.build_footprints(*c.list, c.newton, a.ntotal());
    EXPECT_TRUE(fg.footprints_match(*c.list, c.newton, a.ntotal()));
    bool reaches_ghost = false;
    for (int g = 0; g < fg.ngroups(); ++g) {
      const std::span<const int> got = fg.footprint(g);
      const std::vector<int> want = brute_footprint(fg, g, *c.list, c.newton);
      EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want)
          << "group " << g << " newton " << c.newton << " full "
          << c.list->full;
      for (const int j : got) reaches_ghost |= j >= a.nlocal();
    }
    // Only a Newton half list writes ghosts.
    EXPECT_EQ(reaches_ghost, !c.list->full && c.newton);
  }
}

TEST(ForceGroups, AssignReusesStorageAndDropsFootprints) {
  Atoms a = halo_cluster(120, 80, 7.0, 2.8, 5u);
  const geom::Box sub{{0, 0, 0}, {7, 7, 7}};
  const NeighborList l =
      NeighborBuilder(2.8).build_half(a, HalfRule::kAllGhosts);
  ForceGroups fg;
  fg.assign(a, sub, 2.8);
  fg.build_footprints(l, true, a.ntotal());
  const ForceGroups fresh = ForceGroups::build(a, sub, 2.8);
  ASSERT_EQ(fg.ngroups(), fresh.ngroups());
  for (int g = 0; g < fg.ngroups(); ++g) {
    EXPECT_EQ(fg.groups[static_cast<std::size_t>(g)].mask,
              fresh.groups[static_cast<std::size_t>(g)].mask);
    EXPECT_EQ(fg.groups[static_cast<std::size_t>(g)].atoms,
              fresh.groups[static_cast<std::size_t>(g)].atoms);
  }
  // A new epoch invalidates the footprints until they are rebuilt.
  fg.assign(a, sub, 2.8);
  EXPECT_FALSE(fg.footprints_match(l, true, a.ntotal()));
  fg.build_footprints(l, true, a.ntotal());
  EXPECT_TRUE(fg.footprints_match(l, true, a.ntotal()));
  EXPECT_FALSE(fg.footprints_match(l, false, a.ntotal()));
  EXPECT_FALSE(fg.footprints_match(l, true, a.ntotal() + 1));
}

TEST(LjSplit, FootprintsNotBuiltForListThrow) {
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = halo_cluster(40, 20, 5.0, 2.8, 3u);
  const NeighborList l =
      NeighborBuilder(2.8).build_half(a, HalfRule::kAllGhosts);
  const geom::Box sub{{0, 0, 0}, {5, 5, 5}};
  ForceGroups fg = ForceGroups::build(a, sub, 2.8);
  EXPECT_THROW(lj.split_begin(a, l, true, &fg), std::invalid_argument);
  fg.build_footprints(l, false, a.ntotal());
  EXPECT_THROW(lj.split_begin(a, l, true, &fg), std::invalid_argument);
  fg.build_footprints(l, true, a.ntotal());
  EXPECT_NO_THROW(lj.split_begin(a, l, true, &fg));
}

TEST(LjSplit, SparseJoinMatchesDenseGroupSumBitwise) {
  // The dense join's arithmetic, rebuilt from single-group evaluations:
  // per element, +0.0 plus every group's buffer in ascending group order.
  // The sparse join skips only +0.0 adds, so it must match bit for bit.
  Atoms a = halo_cluster(120, 80, 7.0, 2.8, 21u);
  Atoms b = halo_cluster(120, 80, 7.0, 2.8, 21u);
  const geom::Box sub{{0, 0, 0}, {7, 7, 7}};
  NeighborBuilder nb(2.8);
  const NeighborList la = nb.build_half(a, HalfRule::kAllGhosts);
  const NeighborList lb = nb.build_half(b, HalfRule::kAllGhosts);
  ForceGroups fg = ForceGroups::build(a, sub, 2.8);
  fg.build_footprints(la, true, a.ntotal());
  ASSERT_GE(fg.ngroups(), 3);

  LennardJones lj(1.0, 1.0, 2.5);
  split_eval(lj, a, la, true, fg);

  std::vector<double> dense(static_cast<std::size_t>(3 * b.ntotal()), 0.0);
  for (int g = 0; g < fg.ngroups(); ++g) {
    ForceGroups one;
    one.nlocal = fg.nlocal;
    one.groups = {fg.groups[static_cast<std::size_t>(g)]};
    one.build_footprints(lb, true, b.ntotal());
    LennardJones lj_g(1.0, 1.0, 2.5);
    split_eval(lj_g, b, lb, true, one);
    for (std::size_t k = 0; k < dense.size(); ++k) dense[k] += b.f()[k];
  }
  for (std::size_t k = 0; k < dense.size(); ++k) {
    ASSERT_EQ(bits(a.f()[k]), bits(dense[k])) << "force component " << k;
  }
}

TEST(LjSplit, ReusedAcrossEvaluationsMatchesFreshBitwise) {
  // One potential over five evaluations of one epoch (positions moving
  // under a frozen list) equals a fresh potential per evaluation: the
  // join leaves every buffer it drains all-zero. Half list with Newton
  // (ghost partners written) and full list without (rows only).
  const geom::Box sub{{0, 0, 0}, {7, 7, 7}};
  NeighborBuilder nb(2.8);
  for (const bool newton : {true, false}) {
    Atoms a = halo_cluster(120, 80, 7.0, 2.8, 17u);
    Atoms b = halo_cluster(120, 80, 7.0, 2.8, 17u);
    Atoms m = halo_cluster(120, 80, 7.0, 2.8, 17u);
    const NeighborList la = newton ? nb.build_half(a, HalfRule::kAllGhosts)
                                   : nb.build_full(a);
    const NeighborList lb = newton ? nb.build_half(b, HalfRule::kAllGhosts)
                                   : nb.build_full(b);
    ForceGroups fga = ForceGroups::build(a, sub, 2.8);
    ForceGroups fgb = ForceGroups::build(b, sub, 2.8);
    fga.build_footprints(la, newton, a.ntotal());
    fgb.build_footprints(lb, newton, b.ntotal());
    ASSERT_GE(fga.ngroups(), 3);

    LennardJones reused(1.0, 1.0, 2.5);
    for (int e = 0; e < 5; ++e) {
      jiggle(a, 0.05, 100u + static_cast<std::uint32_t>(e));
      jiggle(b, 0.05, 100u + static_cast<std::uint32_t>(e));
      jiggle(m, 0.05, 100u + static_cast<std::uint32_t>(e));
      LennardJones fresh(1.0, 1.0, 2.5);
      const ForceResult ra = split_eval(reused, a, la, newton, fga);
      const ForceResult rb = split_eval(fresh, b, lb, newton, fgb);
      SCOPED_TRACE(::testing::Message()
                   << "newton " << newton << " eval " << e);
      expect_same_bits(a, ra, b, rb);
      expect_near_monolithic(a, fresh, m, lb, newton);
    }
  }
}

TEST(LjSplit, AbandonedEvaluationLeavesNoResidue) {
  // A thrown DAG node cancels the join after some groups ran: their
  // buffers are dirty. The next split_begin must clear them, so the next
  // full evaluation equals a fresh potential's bit for bit.
  Atoms a = halo_cluster(120, 80, 7.0, 2.8, 29u);
  Atoms b = halo_cluster(120, 80, 7.0, 2.8, 29u);
  const geom::Box sub{{0, 0, 0}, {7, 7, 7}};
  NeighborBuilder nb(2.8);
  const NeighborList la = nb.build_half(a, HalfRule::kAllGhosts);
  const NeighborList lb = nb.build_half(b, HalfRule::kAllGhosts);
  ForceGroups fga = ForceGroups::build(a, sub, 2.8);
  ForceGroups fgb = ForceGroups::build(b, sub, 2.8);
  fga.build_footprints(la, true, a.ntotal());
  fgb.build_footprints(lb, true, b.ntotal());
  ASSERT_GE(fga.ngroups(), 3);

  LennardJones lj(1.0, 1.0, 2.5);
  a.zero_forces();
  lj.split_begin(a, la, true, &fga);
  lj.split_group(0, 0);
  lj.split_group(0, 2);  // abandoned: no join

  LennardJones fresh(1.0, 1.0, 2.5);
  const ForceResult ra = split_eval(lj, a, la, true, fga);
  const ForceResult rb = split_eval(fresh, b, lb, true, fgb);
  expect_same_bits(a, ra, b, rb);
}

TEST(EamSplit, ReusedAcrossEvaluationsMatchesFreshBitwise) {
  const EamTable table = cu_table();
  const geom::Box sub{{0, 0, 0}, {12, 12, 12}};
  NeighborBuilder nb(5.3);
  Atoms a = halo_cluster(150, 120, 12.0, 5.3, 31u);
  Atoms b = halo_cluster(150, 120, 12.0, 5.3, 31u);
  Atoms m = halo_cluster(150, 120, 12.0, 5.3, 31u);
  const NeighborList la = nb.build_half(a, HalfRule::kAllGhosts);
  const NeighborList lb = nb.build_half(b, HalfRule::kAllGhosts);
  ForceGroups fga = ForceGroups::build(a, sub, 5.3);
  ForceGroups fgb = ForceGroups::build(b, sub, 5.3);
  fga.build_footprints(la, true, a.ntotal());
  fgb.build_footprints(lb, true, b.ntotal());
  ASSERT_GE(fga.ngroups(), 3);

  Eam reused(table);
  for (int e = 0; e < 5; ++e) {
    jiggle(a, 0.05, 200u + static_cast<std::uint32_t>(e));
    jiggle(b, 0.05, 200u + static_cast<std::uint32_t>(e));
    jiggle(m, 0.05, 200u + static_cast<std::uint32_t>(e));
    Eam fresh(table);
    const ForceResult ra = split_eval(reused, a, la, true, fga);
    const ForceResult rb = split_eval(fresh, b, lb, true, fgb);
    SCOPED_TRACE(::testing::Message() << "eval " << e);
    expect_same_bits(a, ra, b, rb);
    ASSERT_EQ(reused.last_rho().size(), fresh.last_rho().size());
    for (std::size_t i = 0; i < reused.last_rho().size(); ++i) {
      ASSERT_EQ(bits(reused.last_rho()[i]), bits(fresh.last_rho()[i]));
    }
    expect_near_monolithic(a, fresh, m, lb, true);  // overwrites fresh's rho
  }
}

TEST(EamSplit, AbandonedEvaluationLeavesNoResidue) {
  // Abandon once inside pass 0 (density buffers dirty) and once inside
  // pass 1 (force buffers dirty, densities already drained); each time
  // the next full evaluation must equal a fresh potential's.
  const EamTable table = cu_table();
  const geom::Box sub{{0, 0, 0}, {12, 12, 12}};
  NeighborBuilder nb(5.3);
  Atoms a = halo_cluster(150, 120, 12.0, 5.3, 37u);
  Atoms b = halo_cluster(150, 120, 12.0, 5.3, 37u);
  const NeighborList la = nb.build_half(a, HalfRule::kAllGhosts);
  const NeighborList lb = nb.build_half(b, HalfRule::kAllGhosts);
  ForceGroups fga = ForceGroups::build(a, sub, 5.3);
  ForceGroups fgb = ForceGroups::build(b, sub, 5.3);
  fga.build_footprints(la, true, a.ntotal());
  fgb.build_footprints(lb, true, b.ntotal());
  ASSERT_GE(fga.ngroups(), 3);

  Eam eam(table);
  for (const int abandon_pass : {0, 1}) {
    a.zero_forces();
    eam.split_begin(a, la, true, &fga);
    if (abandon_pass == 1) {
      for (int g = 0; g < fga.ngroups(); ++g) eam.split_group(0, g);
      eam.split_join(0, nullptr);
    }
    eam.split_group(abandon_pass, 0);
    eam.split_group(abandon_pass, fga.ngroups() - 1);  // abandoned: no join

    Eam fresh(table);
    const ForceResult ra = split_eval(eam, a, la, true, fga);
    const ForceResult rb = split_eval(fresh, b, lb, true, fgb);
    SCOPED_TRACE(::testing::Message() << "abandoned in pass " << abandon_pass);
    expect_same_bits(a, ra, b, rb);
  }
}

}  // namespace
}  // namespace lmp::md
