#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm_factory.h"
#include "comm/msg_codec.h"
#include "geom/lattice.h"
#include "minimpi/runtime.h"
#include "obs/alloc_tracker.h"
#include "sim/simulation.h"

namespace lmp::sim {
namespace {

SimOptions lj_opts(util::Int3 grid, const std::string& v) {
  SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {6, 6, 6};  // 864 atoms, box side ~10 sigma
  o.rank_grid = grid;
  o.comm = v;
  o.thermo_every = 5;
  return o;
}

/// Final-state fingerprint: the thermo series is a global observable
/// identical across ranks; comparing it compares the full trajectory.
std::vector<double> fingerprint(const JobResult& r) {
  std::vector<double> out;
  for (const auto& s : r.thermo) {
    out.push_back(s.state.temperature);
    out.push_back(s.state.pressure);
    out.push_back(s.state.total());
  }
  return out;
}

void expect_close(const std::vector<double>& a, const std::vector<double>& b,
                  double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::fabs(a[i]), std::fabs(b[i]), 1.0});
    EXPECT_NEAR(a[i], b[i], tol * scale) << "element " << i;
  }
}

TEST(CommIntegration, SerialMatchesEightRanks) {
  const auto serial = run_simulation(lj_opts({1, 1, 1}, "ref"), 40);
  const auto parallel = run_simulation(lj_opts({2, 2, 2}, "ref"), 40);
  expect_close(fingerprint(serial), fingerprint(parallel), 1e-7);
}

TEST(CommIntegration, AllVariantsAgreeOnTrajectory) {
  const auto ref = run_simulation(lj_opts({2, 2, 2}, "ref"), 40);
  for (const char* v :
       {"mpi_p2p", "utofu_3stage", "4tni_p2p", "6tni_p2p", "opt"}) {
    const auto got = run_simulation(lj_opts({2, 2, 2}, v), 40);
    expect_close(fingerprint(ref), fingerprint(got), 1e-7);
  }
}

TEST(CommIntegration, AsymmetricGridAgrees) {
  const auto ref = run_simulation(lj_opts({1, 1, 1}, "ref"), 30);
  const auto got = run_simulation(lj_opts({3, 2, 1}, "opt"), 30);
  expect_close(fingerprint(ref), fingerprint(got), 1e-7);
}

TEST(CommIntegration, AtomCountConservedThroughExchanges) {
  // 60 steps crosses several rebuild/exchange cycles (every = 20).
  for (const char* v : {"ref", "opt"}) {
    const auto r = run_simulation(lj_opts({2, 2, 2}, v), 60);
    long total = 0;
    for (const auto& rank : r.ranks) total += rank.nlocal_final;
    EXPECT_EQ(total, r.natoms) << v;
  }
}

TEST(CommIntegration, AtomsActuallyMigrate) {
  const auto r = run_simulation(lj_opts({2, 2, 2}, "opt"), 80);
  // At T=1.44 the melt definitely sends atoms across sub-box borders.
  std::uint64_t exchange_msgs = 0;
  for (const auto& rank : r.ranks) exchange_msgs += rank.comm.exchange_msgs;
  EXPECT_GT(exchange_msgs, 0u);
  // Ranks should no longer all hold exactly natoms/8 after a melt phase...
  // but counts must stay positive and sum correctly (checked above).
  for (const auto& rank : r.ranks) EXPECT_GT(rank.nlocal_final, 0);
}

TEST(CommIntegration, P2pMessageCountsMatchPattern) {
  const int steps = 40;
  const auto r = run_simulation(lj_opts({2, 2, 2}, "6tni_p2p"), steps);
  const auto& c = r.ranks[0].comm;
  // Rebuilds: steps/20 plus the setup rebuild.
  const std::uint64_t rebuilds = steps / 20 + 1;
  EXPECT_EQ(c.border_msgs, 13u * rebuilds);
  EXPECT_EQ(c.exchange_msgs, 26u * rebuilds);
  // Forward runs on every non-rebuild step; reverse on every step.
  EXPECT_EQ(c.reverse_msgs, 13u * (steps + 1));
  EXPECT_EQ(c.forward_msgs, 13u * (steps + 1 - rebuilds));
}

TEST(CommIntegration, MpiP2pMessageCountsMatchPattern) {
  const int steps = 40;
  const auto r = run_simulation(lj_opts({2, 2, 2}, "mpi_p2p"), steps);
  const auto& c = r.ranks[0].comm;
  const std::uint64_t rebuilds = steps / 20 + 1;
  EXPECT_EQ(c.border_msgs, 13u * rebuilds);
  EXPECT_EQ(c.exchange_msgs, 26u * rebuilds);
  EXPECT_EQ(c.reverse_msgs, 13u * (steps + 1));
}

TEST(CommIntegration, BrickMessageCountsMatchPattern) {
  const int steps = 40;
  const auto r = run_simulation(lj_opts({2, 2, 2}, "ref"), steps);
  const auto& c = r.ranks[0].comm;
  const std::uint64_t rebuilds = steps / 20 + 1;
  EXPECT_EQ(c.border_msgs, 6u * rebuilds);
  EXPECT_EQ(c.reverse_msgs, 6u * (steps + 1));
  EXPECT_EQ(c.forward_msgs, 6u * (steps + 1 - rebuilds));
}

TEST(CommIntegration, BorderBinsOnOffEquivalent) {
  SimOptions with = lj_opts({2, 2, 2}, "opt");
  SimOptions without = with;
  without.use_border_bins = false;
  const auto a = run_simulation(with, 30);
  const auto b = run_simulation(without, 30);
  expect_close(fingerprint(a), fingerprint(b), 1e-12);
}

TEST(CommIntegration, LoadBalanceOnOffEquivalent) {
  SimOptions with = lj_opts({2, 2, 2}, "opt");
  SimOptions without = with;
  without.balanced_assignment = false;
  const auto a = run_simulation(with, 30);
  const auto b = run_simulation(without, 30);
  expect_close(fingerprint(a), fingerprint(b), 1e-7);
}

TEST(CommIntegration, EamVariantsAgree) {
  SimOptions o;
  o.config = md::SimConfig::eam_copper();
  o.cells = {5, 5, 5};  // 500 atoms, box ~18 A, sub-box ~9 A > rc 5.95
  o.rank_grid = {2, 1, 1};
  o.thermo_every = 5;
  o.comm = "ref";
  const auto ref = run_simulation(o, 25);
  o.comm = "opt";
  const auto opt = run_simulation(o, 25);
  expect_close(fingerprint(ref), fingerprint(opt), 1e-7);
  // EAM's mid-pair comm must show up in the scalar counters.
  EXPECT_GT(opt.ranks[0].comm.scalar_msgs, 0u);
}

TEST(CommIntegration, NewtonOffUsesFullShell) {
  SimOptions o = lj_opts({2, 2, 2}, "6tni_p2p");
  o.config.newton = false;
  const int steps = 20;
  const auto r = run_simulation(o, steps);
  const auto& c = r.ranks[0].comm;
  const std::uint64_t rebuilds = steps / 20 + 1;
  EXPECT_EQ(c.border_msgs, 26u * rebuilds);
  EXPECT_EQ(c.reverse_msgs, 0u);  // no force return without Newton
}

TEST(CommIntegration, NewtonOnOffSameTrajectory) {
  SimOptions on = lj_opts({2, 2, 2}, "6tni_p2p");
  SimOptions off = on;
  off.config.newton = false;
  const auto a = run_simulation(on, 30);
  const auto b = run_simulation(off, 30);
  expect_close(fingerprint(a), fingerprint(b), 1e-7);
}

TEST(CommIntegration, SubBoxThinnerThanCutoffRejected) {
  SimOptions o = lj_opts({6, 1, 1}, "opt");
  // sub-box x side = 10/6 = 1.67 < rc = 2.8.
  EXPECT_THROW(run_simulation(o, 1), std::invalid_argument);
}


// ---------------------------------------------------------------------
// Cross-variant golden test: with canonically sorted neighbor rows every
// comm variant must produce the *bitwise identical* trajectory — not
// just close. Newton off keeps reverse accumulation (whose unpack order
// is transport-specific under Newton) out of the picture; every other
// stage is deterministic by construction.
// ---------------------------------------------------------------------

TEST(CommIntegration, GoldenAllVariantsBitwiseIdentical) {
  SimOptions base;
  base.config = md::SimConfig::eam_copper();
  base.config.newton = false;
  base.cells = {5, 5, 5};
  base.rank_grid = {2, 2, 2};
  base.thermo_every = 5;

  const std::vector<std::string> variants =
      comm::CommFactory::instance().names();
  ASSERT_GE(variants.size(), 6u);

  std::vector<AtomState> golden;
  for (const std::string& v : variants) {
    SimOptions o = base;
    o.comm = v;
    const JobResult r = run_simulation(o, 15);
    ASSERT_EQ(r.atoms.size(), static_cast<std::size_t>(r.natoms)) << v;
    if (golden.empty()) {
      golden = r.atoms;
      continue;
    }
    ASSERT_EQ(r.atoms.size(), golden.size()) << v;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(r.atoms[i].tag, golden[i].tag) << v << " atom " << i;
      for (int d = 0; d < 3; ++d) {
        // Bit-level compare: EXPECT_EQ on doubles would accept -0.0 ==
        // +0.0 and miss sign-of-zero divergence between pack paths.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.atoms[i].pos[d]),
                  std::bit_cast<std::uint64_t>(golden[i].pos[d]))
            << v << " atom tag " << golden[i].tag << " pos axis " << d;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.atoms[i].vel[d]),
                  std::bit_cast<std::uint64_t>(golden[i].vel[d]))
            << v << " atom tag " << golden[i].tag << " vel axis " << d;
      }
    }
  }
}

TEST(CommP2pMpi, ZeroLengthReceivesAreEmptyPayloads) {
  // Regression: an exchange with no migrants receives 26 empty payloads,
  // and copying one used to hand memcpy null pointers (UBSan's
  // nonnull-attribute check; ci.sh's sanitizer pass halts on it).
  const geom::Box global{{0, 0, 0}, {10, 10, 10}};
  const geom::Decomposition decomp({1, 1, 1}, global);
  md::Atoms atoms;
  atoms.reserve_capacity(4096);
  atoms.add_local({5, 5, 5}, {0, 0, 0}, 1);
  atoms.add_local({4, 6, 5}, {0, 0, 0}, 2);
  minimpi::World world(1);
  comm::CommBuildInputs in;
  in.ctx.decomp = &decomp;
  in.ctx.atoms = &atoms;
  in.ctx.sub = decomp.sub_box(0);
  in.ctx.global = global;
  in.ctx.ghost_cutoff = 2.8;
  in.ctx.density = 0.8;
  in.world = &world;
  const comm::CommInstance c =
      comm::CommFactory::instance().at("mpi_p2p").build(in);
  c.comm->setup();
  c.comm->exchange();
  EXPECT_EQ(atoms.nlocal(), 2);
  EXPECT_EQ(c.comm->counters().exchange_msgs, 26u);
  EXPECT_EQ(c.comm->counters().bytes, 0u);
}

TEST(CommBrick, ForwardCountMismatchNamesRankAndChannel) {
  // A forward payload that does not fill the ghost block borders()
  // placed is rejected with the rank and channel it arrived on. The
  // stray message is pre-posted under the ref transport's forward tag
  // for channel 0 (kind * 8 + channel), so it is matched first.
  const geom::Box global{{0, 0, 0}, {10, 10, 10}};
  const geom::Decomposition decomp({1, 1, 1}, global);
  md::Atoms atoms;
  atoms.reserve_capacity(4096);
  atoms.add_local({0.5, 5, 5}, {0, 0, 0}, 1);
  atoms.add_local({9.5, 5, 5}, {0, 0, 0}, 2);
  minimpi::World world(1);
  comm::CommBuildInputs in;
  in.ctx.decomp = &decomp;
  in.ctx.atoms = &atoms;
  in.ctx.sub = decomp.sub_box(0);
  in.ctx.global = global;
  in.ctx.ghost_cutoff = 2.8;
  in.ctx.density = 0.8;
  in.world = &world;
  const comm::CommInstance c = comm::CommFactory::instance().at("ref").build(in);
  c.comm->setup();
  c.comm->exchange();
  c.comm->borders();
  ASSERT_GT(atoms.nghost(), 0);

  const double stray = 1.0;
  world.send(0, 0, static_cast<int>(comm::MsgKind::kForward) * 8 + 0,
             std::as_bytes(std::span<const double>(&stray, 1)));
  try {
    c.comm->forward_positions();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_THAT(e.what(), ::testing::HasSubstr("rank 0"));
    EXPECT_THAT(e.what(), ::testing::HasSubstr("channel 0"));
  }
}

TEST(CommUtofu, Brick3StageStepsAllocateNothingInComm) {
  // utofu_3stage packs into its registered send buffer and receives a
  // view of the ring slot, so a step without a rebuild makes no heap
  // allocation in the Comm stage. 19 steps stay short of the first
  // rebuild (neigh every 20); the guard checks steps 5..19. The async
  // executor runs the forward inside the step DAG, timed as Pair, so
  // the stage:Pair row must be absent too.
  if (!obs::alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: guard disarms itself";
  }
  for (const bool newton : {true, false}) {
    for (const char* executor : {"barrier", "async"}) {
      SimOptions o = lj_opts({2, 2, 1}, "utofu_3stage");
      o.config.newton = newton;
      o.executor = executor;
      o.alloc_guard = true;
      o.alloc_guard_warmup = 4;
      const JobResult r = run_simulation(o, 19);
      ASSERT_TRUE(r.alloc_guard.tracker_available);
      EXPECT_EQ(r.alloc_guard.steps_checked, 15);
      for (const obs::AllocSlotStats& row : r.alloc_guard.rows) {
        for (const char* stage : {"stage:Comm", "stage:Pair"}) {
          EXPECT_STRNE(row.name, stage)
              << "newton " << newton << ", " << executor << ": "
              << row.allocs << " allocs";
        }
      }
    }
  }
}

TEST(CommUtofu, RegistersOnlyAtSetup) {
  // Pre-registration (paper Sec. 3.4): setup() registers every RDMA
  // buffer a run will use, so exchanges that migrate atoms, border
  // rebuilds and forward/reverse rounds never register again. Clean runs
  // only: under fault injection, replay copies register lazily.
  const geom::FccLattice lattice = geom::FccLattice::from_density(0.8442);
  const geom::Box global = lattice.box_for(6, 6, 6);
  const geom::Decomposition decomp({2, 2, 1}, global);
  const std::vector<util::Vec3> pos = lattice.generate(6, 6, 6);
  const double density = static_cast<double>(pos.size()) / global.volume();
  const int nranks = decomp.nranks();
  for (const char* v : {"6tni_p2p", "opt"}) {
    minimpi::World world(nranks);
    tofu::Network net(nranks);
    comm::AddressBook book(nranks);
    std::uint64_t after_setup = 0;
    std::atomic<std::uint64_t> migrated_bytes{0};
    minimpi::run_ranks(nranks, [&](int rank) {
      md::Atoms atoms;
      atoms.reserve_capacity(4096);
      for (std::size_t i = 0; i < pos.size(); ++i) {
        if (decomp.owner_of(pos[i]) == rank) {
          atoms.add_local(pos[i], {0, 0, 0}, static_cast<std::int64_t>(i));
        }
      }
      comm::CommBuildInputs in;
      in.ctx.decomp = &decomp;
      in.ctx.rank = rank;
      in.ctx.atoms = &atoms;
      in.ctx.sub = decomp.sub_box(rank);
      in.ctx.global = global;
      in.ctx.ghost_cutoff = 2.8;
      in.ctx.density = density;
      in.world = &world;
      in.net = &net;
      in.book = &book;
      const comm::CommInstance built =
          comm::CommFactory::instance().at(v).build(in);
      comm::Comm& c = *built.comm;
      c.setup();
      world.barrier(rank);
      if (rank == 0) after_setup = net.stats().registrations.load();
      world.barrier(rank);
      for (int epoch = 0; epoch < 2; ++epoch) {
        // Drift every atom by more than a lattice plane spacing (0.84),
        // so one plane per sub-box crosses into the x and y neighbors.
        for (int i = 0; i < atoms.nlocal(); ++i) {
          atoms.set_pos(i, atoms.pos(i) + util::Vec3{0.9, 0.9, 0.3});
        }
        const std::uint64_t before = c.counters().bytes;
        c.exchange();
        migrated_bytes += c.counters().bytes - before;
        c.borders();
        for (int round = 0; round < 20; ++round) {
          c.forward_positions();
          atoms.zero_forces();
          c.reverse_forces();
        }
        atoms.clear_ghosts();
      }
      world.barrier(rank);
    });
    EXPECT_GT(after_setup, 0u) << v;
    EXPECT_GT(migrated_bytes.load(), 0u) << v;
    EXPECT_EQ(net.stats().registrations.load(), after_setup) << v;
  }
}

}  // namespace
}  // namespace lmp::sim
