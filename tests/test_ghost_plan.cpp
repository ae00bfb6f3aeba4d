#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "comm/directions.h"
#include "comm/ghost_plan.h"
#include "geom/decomposition.h"
#include "md/atoms.h"
#include "obs/alloc_tracker.h"
#include "util/rng.h"

namespace lmp::comm {
namespace {

/// A CommContext over its own decomposition, so tests can build plans
/// without a Simulation.
struct PlanFixture {
  geom::Decomposition decomp;
  CommContext ctx;

  PlanFixture(util::Int3 grid, geom::Box global, int rank, double rc,
              bool newton = true, double density = 0.8)
      : decomp(grid, global) {
    ctx.decomp = &decomp;
    ctx.rank = rank;
    ctx.sub = decomp.sub_box(rank);
    ctx.global = global;
    ctx.ghost_cutoff = rc;
    ctx.newton = newton;
    ctx.density = density;
  }
};

const geom::Box kBox{{0, 0, 0}, {20, 20, 20}};

TEST(GhostPlan, StagedChannelsAndPeers) {
  PlanFixture f({2, 2, 2}, kBox, /*rank=*/0, /*rc=*/2.0);
  const GhostPlan plan = GhostPlan::staged(f.ctx);
  EXPECT_EQ(plan.scheme(), GhostPlan::Scheme::kStaged);
  ASSERT_EQ(plan.nchannels(), 6);
  EXPECT_EQ(plan.send_channels().size(), 6u);
  EXPECT_EQ(plan.recv_channels().size(), 6u);
  // Channel 0 sends toward -x: rank 0 at coord (0,0,0) wraps to rank 1.
  EXPECT_EQ(plan.send_peer(0), f.decomp.rank_of({-1, 0, 0}));
  EXPECT_EQ(plan.recv_peer(0), f.decomp.rank_of({+1, 0, 0}));
}

TEST(GhostPlan, PeriodicShiftsOnTorusEdges) {
  // Rank 0 sits at the (0,0,0) corner of a 2x2x2 grid: every payload it
  // sends toward a negative direction wraps and needs +extent added.
  PlanFixture corner({2, 2, 2}, kBox, 0, 2.0, /*newton=*/false);
  const GhostPlan plan = GhostPlan::p2p(corner.ctx, false);
  const int low_corner = dir_index({-1, -1, -1});
  EXPECT_EQ(plan.shift(low_corner).x, 20.0);
  EXPECT_EQ(plan.shift(low_corner).y, 20.0);
  EXPECT_EQ(plan.shift(low_corner).z, 20.0);
  // Toward +x the neighbor is interior in x... 2-rank axis: coord 0+1=1
  // < grid 2, so no wrap, no shift.
  const int px = dir_index({+1, 0, 0});
  EXPECT_EQ(plan.shift(px).x, 0.0);

  // An interior rank of a 3x3x3 grid wraps nowhere: all shifts zero.
  PlanFixture mid({3, 3, 3}, kBox, /*rank=*/13, 2.0, false);
  ASSERT_EQ(mid.decomp.coord_of(13), (util::Int3{1, 1, 1}));
  const GhostPlan interior = GhostPlan::p2p(mid.ctx, false);
  for (int d = 0; d < kNumDirs; ++d) {
    EXPECT_EQ(interior.shift(d).x, 0.0) << d;
    EXPECT_EQ(interior.shift(d).y, 0.0) << d;
    EXPECT_EQ(interior.shift(d).z, 0.0) << d;
  }

  // The far corner (2,2,2) wraps on every positive axis: -extent.
  PlanFixture far({3, 3, 3}, kBox, mid.decomp.rank_of({2, 2, 2}), 2.0, false);
  const GhostPlan high = GhostPlan::p2p(far.ctx, false);
  const int hi_corner = dir_index({+1, +1, +1});
  EXPECT_EQ(high.shift(hi_corner).x, -20.0);
  EXPECT_EQ(high.shift(hi_corner).y, -20.0);
  EXPECT_EQ(high.shift(hi_corner).z, -20.0);
}

TEST(GhostPlan, NewtonHalvesP2pChannels) {
  PlanFixture on({2, 2, 2}, kBox, 0, 2.0, /*newton=*/true);
  const GhostPlan half = GhostPlan::p2p(on.ctx, false);
  EXPECT_EQ(half.send_channels().size(), 13u);
  EXPECT_EQ(half.recv_channels().size(), 13u);
  for (const int d : half.send_channels()) EXPECT_FALSE(is_upper(d));
  for (const int d : half.recv_channels()) EXPECT_TRUE(is_upper(d));

  PlanFixture off({2, 2, 2}, kBox, 0, 2.0, /*newton=*/false);
  const GhostPlan full = GhostPlan::p2p(off.ctx, false);
  EXPECT_EQ(full.send_channels().size(), 26u);
  EXPECT_EQ(full.recv_channels().size(), 26u);
}

TEST(GhostPlan, ThinSubBoxThrows) {
  // 8 ranks along x gives 2.5-wide slabs, thinner than cutoff 3.
  PlanFixture f({8, 1, 1}, kBox, 0, /*rc=*/3.0);
  EXPECT_THROW(GhostPlan::staged(f.ctx), std::invalid_argument);
  EXPECT_THROW(GhostPlan::p2p(f.ctx, true), std::invalid_argument);
}

TEST(GhostPlan, StagedSelectSweepsTheCutoffSlab) {
  PlanFixture f({2, 2, 2}, kBox, 0, 2.0);
  GhostPlan plan = GhostPlan::staged(f.ctx);
  // Sub-box of rank 0 is [0,10)^3.
  md::Atoms atoms;
  atoms.reserve_capacity(8);
  atoms.add_local({1.0, 5, 5}, {}, 1);   // inside the -x slab (x < 2)
  atoms.add_local({2.5, 5, 5}, {}, 2);   // interior
  atoms.add_local({9.0, 5, 5}, {}, 3);   // inside the +x slab (x > 8)
  atoms.add_local({5.0, 0.5, 5}, {}, 4); // -y slab only

  plan.select_staged(0, atoms, atoms.nlocal());
  EXPECT_EQ(plan.send_list(0), (std::vector<int>{0}));
  plan.select_staged(1, atoms, atoms.nlocal());
  EXPECT_EQ(plan.send_list(1), (std::vector<int>{2}));
  plan.select_staged(2, atoms, atoms.nlocal());
  EXPECT_EQ(plan.send_list(2), (std::vector<int>{3}));
  // The scan_end discipline: a shorter scan cannot see later atoms.
  plan.select_staged(2, atoms, 2);
  EXPECT_TRUE(plan.send_list(2).empty());
}

TEST(GhostPlan, BinnedSendListsMatchNaiveScan) {
  // The same geometry built with and without border bins must pick
  // identical targets for every atom (the bins are an index, not a
  // different selection rule).
  for (const bool newton : {true, false}) {
    PlanFixture f({2, 2, 2}, kBox, 0, 1.7, newton);
    GhostPlan binned = GhostPlan::p2p(f.ctx, true);
    GhostPlan naive = GhostPlan::p2p(f.ctx, false);
    ASSERT_TRUE(binned.using_border_bins());
    ASSERT_FALSE(naive.using_border_bins());

    md::Atoms atoms;
    atoms.reserve_capacity(4000);
    util::Rng rng(17);
    for (int i = 0; i < 3000; ++i) {
      atoms.add_local({rng.uniform(f.ctx.sub.lo.x, f.ctx.sub.hi.x),
                       rng.uniform(f.ctx.sub.lo.y, f.ctx.sub.hi.y),
                       rng.uniform(f.ctx.sub.lo.z, f.ctx.sub.hi.z)},
                      {}, i + 1);
    }
    binned.build_send_lists(atoms);
    naive.build_send_lists(atoms);
    for (const int d : binned.send_channels()) {
      EXPECT_EQ(binned.send_list(d), naive.send_list(d)) << "dir " << d;
    }
  }
}

TEST(GhostPlan, ThinSubBoxSendListsAllocateNothingOnRebuild) {
  // lj-strong's rank geometry: 6x6x6 fcc cells at density 0.8442 on a
  // 2x2x1 grid, ghost cutoff 2.8, so the sub-box is 5.04 wide on x and
  // y — thinner than 2*rc. The border bins still apply, pick the slab
  // scan's lists, and a second selection over the same atoms reuses the
  // lists' storage.
  if (!obs::alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: no interposed operators";
  }
  const double a = std::cbrt(4.0 / 0.8442);
  const geom::Box global{{0, 0, 0}, {6 * a, 6 * a, 6 * a}};
  for (const bool newton : {true, false}) {
    PlanFixture f({2, 2, 1}, global, 0, 2.8, newton, 0.8442);
    GhostPlan binned = GhostPlan::p2p(f.ctx, true);
    GhostPlan naive = GhostPlan::p2p(f.ctx, false);
    ASSERT_TRUE(binned.using_border_bins());
    md::Atoms atoms;
    atoms.reserve_capacity(4 * 6 * 6 * 6);
    util::Rng rng(3);
    const double basis[4][3] = {
        {0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}};
    for (int c = 0; c < 6 * 6 * 6; ++c) {
      for (const auto& b : basis) {
        const util::Vec3 p{(c % 6 + b[0]) * a + rng.uniform(-0.1, 0.1),
                           (c / 6 % 6 + b[1]) * a + rng.uniform(-0.1, 0.1),
                           (c / 36 + b[2]) * a + rng.uniform(-0.1, 0.1)};
        if (f.ctx.sub.contains(p)) atoms.add_local(p, {}, atoms.nlocal() + 1);
      }
    }
    binned.build_send_lists(atoms);
    naive.build_send_lists(atoms);
    for (const int d : binned.send_channels()) {
      EXPECT_EQ(binned.send_list(d), naive.send_list(d)) << "dir " << d;
    }
    const auto allocs = [] {
      return obs::AllocTracker::instance()
          .slot("test:send-lists")
          ->allocs.load(std::memory_order_relaxed);
    };
    const std::uint64_t before = allocs();
    {
      const obs::AllocScope scope("test:send-lists");
      binned.build_send_lists(atoms);
    }
    EXPECT_EQ(allocs(), before) << "newton " << newton;
  }
}

TEST(GhostPlan, SendListsContainExactlyTheBorderAtoms) {
  // Brute force: atom i belongs on channel d iff it lies within the
  // cutoff slab of every face d crosses.
  PlanFixture f({2, 2, 2}, kBox, 0, 2.0, /*newton=*/false);
  GhostPlan plan = GhostPlan::p2p(f.ctx, true);
  md::Atoms atoms;
  atoms.reserve_capacity(1200);
  util::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    atoms.add_local({rng.uniform(0, 10), rng.uniform(0, 10),
                     rng.uniform(0, 10)},
                    {}, i + 1);
  }
  plan.build_send_lists(atoms);
  const auto& dirs = all_dirs();
  for (int d = 0; d < kNumDirs; ++d) {
    std::vector<int> expect;
    for (int i = 0; i < atoms.nlocal(); ++i) {
      const util::Vec3 p = atoms.pos(i);
      bool in = true;
      for (int axis = 0; axis < 3 && in; ++axis) {
        const int o = dirs[static_cast<std::size_t>(d)][
            static_cast<std::size_t>(axis)];
        const double v = p[static_cast<std::size_t>(axis)];
        if (o < 0) in = v < f.ctx.sub.lo[static_cast<std::size_t>(axis)] + 2.0;
        if (o > 0) in = v >= f.ctx.sub.hi[static_cast<std::size_t>(axis)] - 2.0;
      }
      if (in) expect.push_back(i);
    }
    EXPECT_EQ(plan.send_list(d), expect) << "dir " << d;
  }
}

TEST(GhostPlan, ClassifyMigrantsRoutesByDirection) {
  PlanFixture f({2, 2, 2}, kBox, 0, 2.0);
  GhostPlan plan = GhostPlan::p2p(f.ctx, true);
  md::Atoms atoms;
  atoms.reserve_capacity(8);
  atoms.add_local({5, 5, 5}, {}, 1);        // stays
  atoms.add_local({10.5, 5, 5}, {}, 2);     // +x face
  atoms.add_local({-0.3, -0.2, 5}, {}, 3);  // -x-y edge
  atoms.add_local({5, 5, 10.0}, {}, 4);     // exactly at hi: leaves (+z)

  const MigrationPlan& mig = plan.classify_migrants(atoms);
  EXPECT_EQ(mig.gone, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(mig.by_dir[static_cast<std::size_t>(dir_index({+1, 0, 0}))],
            (std::vector<int>{1}));
  EXPECT_EQ(mig.by_dir[static_cast<std::size_t>(dir_index({-1, -1, 0}))],
            (std::vector<int>{2}));
  EXPECT_EQ(mig.by_dir[static_cast<std::size_t>(dir_index({0, 0, +1}))],
            (std::vector<int>{3}));
}

TEST(GhostPlan, MigrantsAlongSingleAxis) {
  PlanFixture f({2, 2, 2}, kBox, 0, 2.0);
  GhostPlan plan = GhostPlan::staged(f.ctx);
  md::Atoms atoms;
  atoms.reserve_capacity(4);
  atoms.add_local({-0.5, 5, 5}, {}, 1);
  atoms.add_local({5, 11, 5}, {}, 2);
  atoms.add_local({5, 5, 5}, {}, 3);
  EXPECT_EQ(plan.migrants_along(atoms, 0), (std::vector<int>{0}));
  EXPECT_EQ(plan.migrants_along(atoms, 1), (std::vector<int>{1}));
  EXPECT_TRUE(plan.migrants_along(atoms, 2).empty());
}

TEST(GhostPlan, UpperBoundCoversActualSendLists) {
  // Fill the sub-box at the context's density; no channel's send list may
  // exceed the preregistration bound (Sec. 3.4) the plan computed.
  PlanFixture f({2, 2, 2}, kBox, 0, 2.0, /*newton=*/false,
                /*density=*/1.0);
  GhostPlan plan = GhostPlan::p2p(f.ctx, true);
  md::Atoms atoms;
  const int n = 1000;  // density 1.0 over the 10^3 sub-box
  atoms.reserve_capacity(n);
  util::Rng rng(7);
  for (int i = 0; i < n; ++i) {
    atoms.add_local({rng.uniform(0, 10), rng.uniform(0, 10),
                     rng.uniform(0, 10)},
                    {}, i + 1);
  }
  plan.build_send_lists(atoms);
  for (int d = 0; d < kNumDirs; ++d) {
    EXPECT_LE(plan.send_list(d).size(), plan.max_channel_atoms()) << d;
  }
  // The payload bound has room for the widest per-atom format plus ring
  // framing on top of the atom bound.
  EXPECT_GE(plan.max_payload_doubles(), plan.max_channel_atoms() * 7);

  const GhostPlan staged = GhostPlan::staged(f.ctx);
  EXPECT_GE(staged.max_channel_atoms(), plan.max_channel_atoms());
}

TEST(GhostPlan, AccountRoutesKindsToCounters) {
  CommCounters c;
  account(c, MsgKind::kBorder, 10);
  account(c, MsgKind::kForward, 9);
  account(c, MsgKind::kReverse, 9);
  account(c, MsgKind::kScalarFwd, 3);
  account(c, MsgKind::kScalarRev, 3);
  account(c, MsgKind::kExchange, 14);
  EXPECT_EQ(c.border_msgs, 1u);
  EXPECT_EQ(c.forward_msgs, 1u);
  EXPECT_EQ(c.reverse_msgs, 1u);
  EXPECT_EQ(c.scalar_msgs, 2u);
  EXPECT_EQ(c.exchange_msgs, 1u);
  EXPECT_EQ(c.bytes, (10u + 9 + 9 + 3 + 3 + 14) * sizeof(double));
  // Control-only words (acks) are not payload traffic.
  account(c, MsgKind::kBorderAck, 1);
  EXPECT_EQ(c.bytes, (10u + 9 + 9 + 3 + 3 + 14) * sizeof(double));
}

}  // namespace
}  // namespace lmp::comm
