#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "md/config.h"
#include "obs/alloc_tracker.h"
#include "obs/tracer.h"
#include "sim/simulation.h"

namespace lmp::sim {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Assert two finished jobs have bitwise-identical trajectories: the
/// tag-sorted final positions and velocities of every atom, plus every
/// thermo sample. This is the acceptance bar for the async executor —
/// overlap must change timing only, never a single bit of physics.
void expect_bitwise_equal(const JobResult& a, const JobResult& b) {
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    ASSERT_EQ(a.atoms[i].tag, b.atoms[i].tag) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].pos.x), bits(b.atoms[i].pos.x)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].pos.y), bits(b.atoms[i].pos.y)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].pos.z), bits(b.atoms[i].pos.z)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].vel.x), bits(b.atoms[i].vel.x)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].vel.y), bits(b.atoms[i].vel.y)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].vel.z), bits(b.atoms[i].vel.z)) << "atom " << i;
  }
  ASSERT_EQ(a.thermo.size(), b.thermo.size());
  for (std::size_t i = 0; i < a.thermo.size(); ++i) {
    ASSERT_EQ(a.thermo[i].step, b.thermo[i].step);
    ASSERT_EQ(bits(a.thermo[i].state.temperature),
              bits(b.thermo[i].state.temperature));
    ASSERT_EQ(bits(a.thermo[i].state.pressure),
              bits(b.thermo[i].state.pressure));
    ASSERT_EQ(bits(a.thermo[i].state.total()), bits(b.thermo[i].state.total()));
  }
}

SimOptions lj_case(const std::string& variant) {
  SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {6, 6, 6};
  o.rank_grid = {2, 2, 1};
  o.comm = variant;
  o.thermo_every = 5;
  return o;
}

SimOptions eam_case(const std::string& variant) {
  SimOptions o;
  o.config = md::SimConfig::eam_copper();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = variant;
  o.thermo_every = 5;
  return o;
}

TEST(Executor, AsyncMatchesBarrierBitwiseLjRef) {
  SimOptions o = lj_case("ref");
  const JobResult barrier = run_simulation(o, 30);
  o.executor = "async";
  const JobResult async = run_simulation(o, 30);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseLjP2p) {
  // 6tni_p2p exposes real per-direction forward channels, so the DAG
  // genuinely overlaps waits with interior groups here.
  SimOptions o = lj_case("6tni_p2p");
  const JobResult barrier = run_simulation(o, 30);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 30);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseLjUtofu3Stage) {
  // utofu_3stage receives are views of the ring slots a peer's put
  // writes. Newton off, as the serve-ckpt workload runs it; the 30 steps
  // include a rebuild, so exchange and borders read ring views too.
  SimOptions o = lj_case("utofu_3stage");
  o.config.newton = false;
  const JobResult barrier = run_simulation(o, 30);
  o.executor = "async";
  const JobResult async = run_simulation(o, 30);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseEamRef) {
  SimOptions o = eam_case("ref");
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseEamP2p) {
  // EAM on the p2p engine exercises the full DAG shape: per-direction
  // waits, the mid join's rho reverse-add + fp forward, and pass 1.
  SimOptions o = eam_case("6tni_p2p");
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseEamEveryStepRebuild) {
  // Every step rebuilds, so the forward never rides the DAG: each async
  // step runs the graph on the pool over ghosts borders() placed.
  SimOptions o = eam_case("6tni_p2p");
  o.config.neigh.every = 1;
  o.config.neigh.check = false;
  const JobResult barrier = run_simulation(o, 12);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 12);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, BarrierRunsStepGraphOnRankThreads) {
  // The barrier executor is a serial run of the step DAG: its force
  // nodes are traced, and only on the rank threads (tid 0), never on a
  // pool worker.
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  obs::Tracer::instance().reset();
  obs::set_trace_categories(static_cast<std::uint32_t>(obs::TraceCat::kPool));
  struct CatsOff {
    ~CatsOff() {
      obs::set_trace_categories(0);
      obs::Tracer::instance().reset();
    }
  } guard;

  // Sub-boxes wider than two neighbor cutoffs, so an interior group exists.
  SimOptions o = lj_case("6tni_p2p");
  o.cells = {8, 6, 6};
  o.rank_grid = {2, 1, 1};
  constexpr int kSteps = 6;
  run_simulation(o, kSteps);

  int interior = 0;
  int reduce = 0;
  for (const obs::CollectedEvent& e :
       obs::Tracer::instance().snapshot_events()) {
    if (e.event.kind != obs::TraceEvent::kSpan) continue;
    if (std::strcmp(e.event.name, "task.interior") == 0) {
      ++interior;
    } else if (std::strcmp(e.event.name, "task.reduce") == 0) {
      ++reduce;
    } else {
      continue;
    }
    EXPECT_EQ(e.tid, 0) << e.event.name << " ran off the rank thread";
    EXPECT_GE(e.pid, 0) << e.event.name << " ran on an unidentified thread";
  }
  // One graph run per rank for the startup evaluation and every step.
  EXPECT_EQ(reduce, 2 * (kSteps + 1));
  EXPECT_EQ(interior, 2 * (kSteps + 1));
}

TEST(Executor, AsyncChargesOverlappedForwardAllocsToComm) {
  // The allocation ledger charges the forward exchange to stage:Comm
  // under both executors, even where the async DAG overlaps it with
  // force work. So the post-warmup stage:Pair row of the ref melt
  // (examples/in.melt.lj) is the same under async as under barrier.
  if (!obs::alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: guard disarms itself";
  }
  const auto pair_allocs = [](const char* executor) {
    SimOptions o = lj_case("ref");
    o.rank_grid = {2, 2, 2};
    o.thermo_every = 20;
    o.executor = executor;
    o.alloc_guard = true;
    const JobResult r = run_simulation(o, 100);
    EXPECT_TRUE(r.alloc_guard.tracker_available);
    for (const obs::AllocSlotStats& row : r.alloc_guard.rows) {
      if (std::strcmp(row.name, "stage:Pair") == 0) return row.allocs;
    }
    return std::uint64_t{0};
  };
  EXPECT_EQ(pair_allocs("async"), pair_allocs("barrier"));
}

TEST(Executor, AsyncNewtonOffUsesRingForward) {
  // Newton-off routes the forward through the payload rings (unpack on
  // the receive side) — the other complete_forward_dir code path.
  SimOptions o = lj_case("6tni_p2p");
  o.config.newton = false;
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncWorksWithCheckpointRebuilds) {
  // Checkpoint steps force rebuilds mid-run; the DAG must be rebuilt
  // per epoch and the serial rebuild-step path must stay consistent.
  SimOptions o = lj_case("6tni_p2p");
  o.checkpoint_every = 7;
  const JobResult barrier = run_simulation(o, 21);
  o.executor = "async";
  const JobResult async = run_simulation(o, 21);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, OptVariantIsRunToRunReproducible) {
  // "opt" fans its reverse accumulation across 6 comm threads; the
  // staged canonical-order settle makes the add order (and hence the
  // trajectory) independent of thread timing, so two identical runs
  // must agree to the bit.
  SimOptions o = lj_case("opt");
  const JobResult first = run_simulation(o, 30);
  const JobResult second = run_simulation(o, 30);
  expect_bitwise_equal(first, second);
}

TEST(Executor, AsyncMatchesBarrierBitwiseLjOpt) {
  SimOptions o = lj_case("opt");
  const JobResult barrier = run_simulation(o, 30);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 30);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseEamOpt) {
  // EAM adds the scalar rho reverse-add to the multi-threaded reverse
  // path; same staged-settle determinism requirement as forces.
  SimOptions o = eam_case("opt");
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, SingleWorkerAsyncStillIdentical) {
  // executor_threads 1 drains the DAG inline — degenerate but legal.
  SimOptions o = lj_case("6tni_p2p");
  o.executor = "async";
  o.executor_threads = 1;
  const JobResult one = run_simulation(o, 15);
  o.executor_threads = 4;
  const JobResult four = run_simulation(o, 15);
  expect_bitwise_equal(one, four);
}

TEST(Executor, UnknownExecutorNameThrows) {
  SimOptions o = lj_case("ref");
  o.executor = "speculative";
  EXPECT_THROW(run_simulation(o, 1), std::runtime_error);
  o.executor = "async";
  o.executor_threads = 0;
  EXPECT_THROW(run_simulation(o, 1), std::runtime_error);
}

}  // namespace
}  // namespace lmp::sim
