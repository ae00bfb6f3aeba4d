#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "comm/health_monitor.h"
#include "sim/simulation.h"
#include "tofu/fault.h"

namespace lmp {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// A 6D axis on which procs 0 and 1 of an nprocs-node allocation differ —
/// downing it severs the route between the first two ranks without the
/// test hard-coding the topology's coordinate ordering.
int separating_axis(int nprocs) {
  for (int axis = 0; axis < 6; ++axis) {
    tofu::FaultPlan plan;
    plan.down_axes = {axis};
    tofu::FaultInjector inj(plan);
    inj.map_procs(nprocs);
    inj.note_put();  // arm the onset clock (fault_onset_puts == 0)
    if (inj.unreachable(0, 1)) return axis;
  }
  ADD_FAILURE() << "no axis separates procs 0 and 1";
  return 0;
}

sim::SimOptions failover_opts() {
  sim::SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = "6tni_p2p";
  o.thermo_every = 10;
  o.checkpoint_every = 10;
  return o;
}

void expect_atoms_bitwise_equal(const std::vector<sim::AtomState>& a,
                                const std::vector<sim::AtomState>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].pos.x, b[i].pos.x);
    EXPECT_EQ(a[i].pos.y, b[i].pos.y);
    EXPECT_EQ(a[i].pos.z, b[i].pos.z);
    EXPECT_EQ(a[i].vel.x, b[i].vel.x);
    EXPECT_EQ(a[i].vel.y, b[i].vel.y);
    EXPECT_EQ(a[i].vel.z, b[i].vel.z);
  }
}

TEST(HealthMonitor, TripsOnlyPastConfiguredBudgets) {
  comm::HealthThresholds thr;
  EXPECT_FALSE(thr.any());
  thr.max_nacks = 5;
  thr.min_tnis = 4;
  comm::HealthMonitor mon(thr);
  EXPECT_TRUE(mon.enabled());

  comm::CommHealthReport h;
  h.nacks_sent = 5;  // at the budget, not over it
  h.tnis_in_use = 6;
  EXPECT_FALSE(mon.assess(h).escalate);

  h.nacks_sent = 6;
  const comm::EscalationDecision d = mon.assess(h);
  EXPECT_TRUE(d.escalate);
  EXPECT_NE(d.reason.find("nacks_sent 6 > max 5"), std::string::npos)
      << d.reason;

  h.nacks_sent = 0;
  h.tnis_in_use = 3;
  EXPECT_TRUE(mon.assess(h).escalate);
  h.tnis_in_use = 0;  // variant doesn't report TNIs: floor doesn't apply
  EXPECT_FALSE(mon.assess(h).escalate);
}

TEST(HealthMonitor, ResolveChainStartsAtActiveVariant) {
  const std::vector<std::string> def = comm::default_failover_chain();
  ASSERT_EQ(def.size(), 4u);
  EXPECT_EQ(def.front(), "6tni_p2p");
  EXPECT_EQ(def.back(), "ref");

  const auto from_mid = comm::resolve_failover_chain("4tni_p2p", def);
  ASSERT_EQ(from_mid.size(), 3u);
  EXPECT_EQ(from_mid[0], "4tni_p2p");
  EXPECT_EQ(from_mid[1], "mpi_p2p");
  EXPECT_EQ(from_mid[2], "ref");

  // Active variant outside the chain: the whole chain is the fallback.
  const auto outside = comm::resolve_failover_chain("opt", {"mpi_p2p", "ref"});
  ASSERT_EQ(outside.size(), 3u);
  EXPECT_EQ(outside[0], "opt");
  EXPECT_EQ(outside[1], "mpi_p2p");
}

TEST(Failover, LinkDownFromStartWalksLadderAndCompletes) {
  sim::SimOptions o = failover_opts();
  o.faults.down_axes = {separating_axis(2)};
  // No checkpoint ever lands (the fabric dies during setup), so the
  // fallback attempts restart from scratch. No exception may escape.
  sim::JobResult r;
  ASSERT_NO_THROW(r = sim::run_simulation(o, 20));
  EXPECT_EQ(r.final_comm, "mpi_p2p");  // first fabric-free rung
  ASSERT_EQ(r.health.escalations.size(), 2u);
  EXPECT_EQ(r.health.escalations[0].from_variant, "6tni_p2p");
  EXPECT_EQ(r.health.escalations[0].to_variant, "4tni_p2p");
  EXPECT_EQ(r.health.escalations[1].from_variant, "4tni_p2p");
  EXPECT_EQ(r.health.escalations[1].to_variant, "mpi_p2p");
  EXPECT_GT(r.health.unreachable_puts, 0u);
  for (const auto& e : r.health.escalations) {
    EXPECT_FALSE(e.reason.empty());
    EXPECT_EQ(e.resume_step, 0);  // never got far enough to checkpoint
  }
  // The table tells the recovery story.
  const std::string table = sim::format_health_table(r.health);
  EXPECT_NE(table.find("escalation at step"), std::string::npos) << table;
  EXPECT_NE(table.find("6tni_p2p -> 4tni_p2p"), std::string::npos) << table;
}

TEST(Failover, CrashedRankNicFailsOverToMpi) {
  sim::SimOptions o = failover_opts();
  o.faults.crashed_ranks = {1};
  sim::JobResult r;
  ASSERT_NO_THROW(r = sim::run_simulation(o, 20));
  EXPECT_EQ(r.final_comm, "mpi_p2p");
  EXPECT_GE(r.health.escalations.size(), 1u);
  EXPECT_GT(r.health.unreachable_puts, 0u);
}

TEST(Failover, ThresholdsTripSoftFailoverAtCheckpointStep) {
  sim::SimOptions o = failover_opts();
  o.faults.drop_rate = 0.05;  // recoverable chaos, but over budget
  o.health.max_nacks = 1;
  o.failover_chain = {"mpi_p2p"};
  sim::JobResult r;
  ASSERT_NO_THROW(r = sim::run_simulation(o, 30));
  EXPECT_EQ(r.final_comm, "mpi_p2p");
  ASSERT_EQ(r.health.escalations.size(), 1u);
  const sim::EscalationEvent& ev = r.health.escalations[0];
  // Soft escalation is assessed at checkpoint steps only, right after
  // the snapshot was cut — so the rollback loses no work.
  EXPECT_EQ(ev.fail_step % 10, 0);
  EXPECT_EQ(ev.resume_step, ev.fail_step);
  EXPECT_NE(ev.reason.find("health threshold"), std::string::npos)
      << ev.reason;
  EXPECT_NE(ev.reason.find("nacks"), std::string::npos) << ev.reason;
}

TEST(Failover, ChainExhaustedRethrows) {
  sim::SimOptions o = failover_opts();
  o.faults.down_axes = {separating_axis(2)};
  o.failover_chain = {"4tni_p2p"};  // also rides the severed fabric
  try {
    (void)sim::run_simulation(o, 20);
    FAIL() << "expected chain exhaustion";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("4tni_p2p"), std::string::npos) << what;
  }
}

TEST(Failover, MaxFailoversZeroDisablesTheLadder) {
  sim::SimOptions o = failover_opts();
  o.faults.down_axes = {separating_axis(2)};
  o.max_failovers = 0;
  EXPECT_THROW((void)sim::run_simulation(o, 20), std::runtime_error);
}

// The ISSUE's chaos acceptance: a TNI dies mid-run, the run rolls back
// to the last checkpoint and finishes on mpi_p2p — and the final state
// is bitwise identical to a clean mpi_p2p run restarted from the same
// checkpoint file.
TEST(Failover, TniDiesMidRunBitwiseAfterFailover) {
  const std::string prefix_a = tmp_path("failover_mid_a");
  const std::string prefix_b = tmp_path("failover_mid_b");

  // Calibrate: count total fabric puts of an un-failed 30-step run (the
  // onset clock ticks once per put), then arm the fault at 60% — past
  // the step-10 checkpoint, before the end.
  sim::SimOptions probe = failover_opts();
  probe.faults.down_axes = {separating_axis(2)};
  probe.faults.fault_onset_puts = ~std::uint64_t{0};  // never manifests
  const sim::JobResult calib = sim::run_simulation(probe, 30);
  ASSERT_GT(calib.health.fabric_puts, 0u);
  EXPECT_TRUE(calib.health.escalations.empty());

  sim::SimOptions o = failover_opts();
  o.faults.down_axes = {separating_axis(2)};
  o.faults.fault_onset_puts = calib.health.fabric_puts * 6 / 10;
  o.failover_chain = {"mpi_p2p"};
  o.checkpoint_path = prefix_a;
  sim::JobResult r;
  ASSERT_NO_THROW(r = sim::run_simulation(o, 30));
  EXPECT_EQ(r.final_comm, "mpi_p2p");
  ASSERT_EQ(r.health.escalations.size(), 1u);
  const sim::EscalationEvent& ev = r.health.escalations[0];
  EXPECT_GT(ev.resume_step, 0) << "fault fired before the first checkpoint";
  EXPECT_LT(ev.resume_step, 30);
  EXPECT_GT(r.health.unreachable_puts, 0u);

  // Clean mpi_p2p run restarted from the same checkpoint file the
  // failover rolled back to.
  sim::SimOptions clean = failover_opts();
  clean.comm = "mpi_p2p";
  clean.restart_file = prefix_a + "." + std::to_string(ev.resume_step);
  clean.checkpoint_path = prefix_b;
  const sim::JobResult c = sim::run_simulation(clean, 30);
  EXPECT_TRUE(c.health.escalations.empty());

  expect_atoms_bitwise_equal(r.atoms, c.atoms);
  ASSERT_EQ(r.thermo.size(), c.thermo.size());
  for (std::size_t i = 0; i < r.thermo.size(); ++i) {
    EXPECT_EQ(r.thermo[i].state.total(), c.thermo[i].state.total());
  }

  for (int s = 10; s <= 30; s += 10) {
    std::remove((prefix_a + "." + std::to_string(s)).c_str());
    std::remove((prefix_b + "." + std::to_string(s)).c_str());
  }
}

}  // namespace
}  // namespace lmp
