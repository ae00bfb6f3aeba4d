#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "md/config.h"
#include "sim/checkpoint.h"
#include "sim/integrity.h"
#include "sim/simulation.h"
#include "tofu/fault.h"

namespace lmp::sim {
namespace {

namespace fs = std::filesystem;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The acceptance bar for transient-corruption recovery: the healed run's
/// tag-sorted final atoms and full thermo series match the fault-free
/// run bit for bit.
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
    ASSERT_EQ(bits(a.thermo[i].state.total()), bits(b.thermo[i].state.total()));
  }
}

SimOptions lj_case() {
  SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = "6tni_p2p";
  o.thermo_every = 5;
  // Long neighbor epochs keep rebuilds away from the injection window:
  // a flipped coordinate must reach a guard before it reaches binning.
  o.config.neigh.every = 20;
  o.config.neigh.check = false;
  // Checkpoint steps force rebuilds, i.e. the schedule is part of the
  // trajectory — the clean reference and the guarded run must share it.
  o.checkpoint_every = 10;
  return o;
}

SimOptions eam_case() {
  SimOptions o;
  o.config = md::SimConfig::eam_copper();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = "6tni_p2p";
  o.thermo_every = 5;
  o.config.neigh.every = 20;
  o.config.neigh.check = false;
  o.checkpoint_every = 10;
  return o;
}

/// One transient velocity flip at a guard step. Velocity flips are
/// always physics-visible: bit 62 turns |v| in [1,2) into NaN/Inf,
/// smaller magnitudes into a huge finite value, and larger ones into a
/// near-zero — every case shifts the net momentum far beyond the
/// conservation budget.
tofu::MemFault vel_flip(int step, bool persistent = false) {
  tofu::MemFault f;
  f.step = step;
  f.rank = 0;
  f.target = static_cast<int>(tofu::MemTarget::kVel);
  f.word = 7;
  f.bit = 62;
  f.persistent = persistent;
  return f;
}

/// Guards are pure sentinels — arming them must not perturb the
/// trajectory (the checkpoint schedule, which does, lives in the case
/// builders so clean and guarded runs share it).
void arm_guards(SimOptions& o, int cadence = 5) {
  o.integrity.cadence = cadence;
}

// --- hash64 -------------------------------------------------------------

TEST(Hash64, DistinguishesDataAndSeed) {
  const char a[] = "the quick brown fox jumps over the lazy dog";
  const char b[] = "the quick brown fox jumps over the lazy dot";
  EXPECT_EQ(hash64(a, sizeof a), hash64(a, sizeof a));
  EXPECT_NE(hash64(a, sizeof a), hash64(b, sizeof b));
  EXPECT_NE(hash64(a, sizeof a), hash64(a, sizeof a, 1));
  EXPECT_NE(hash64(a, sizeof a - 1), hash64(a, sizeof a));
  EXPECT_EQ(hash64(nullptr, 0), hash64(nullptr, 0));
}

TEST(Hash64, ChangesForEveryByte) {
  std::vector<unsigned char> buf(64, 0xA5);
  const std::uint64_t ref = hash64(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= 1;
    EXPECT_NE(hash64(buf.data(), buf.size()), ref) << "byte " << i;
    buf[i] ^= 1;
  }
}

// --- the guards themselves ---------------------------------------------

TEST(Integrity, GuardedCleanRunIsBitwiseIdenticalToUnguarded) {
  SimOptions o = lj_case();
  const JobResult plain = run_simulation(o, 30);
  arm_guards(o);
  const JobResult guarded = run_simulation(o, 30);
  expect_bitwise_equal(plain, guarded);
  EXPECT_GT(guarded.health.integrity_checks, 0u);
  EXPECT_EQ(guarded.health.integrity_detections, 0u);
  EXPECT_EQ(guarded.health.integrity_rollbacks, 0u);
  EXPECT_EQ(guarded.health.mem_flips_injected, 0u);
}

/// The tentpole acceptance case, run over both workloads and both
/// executors: a transient flip is detected within one cadence, rolled
/// back, recomputed, and the finished run matches the fault-free one
/// bitwise.
void expect_transient_recovery(SimOptions o, int nsteps) {
  const JobResult clean = run_simulation(o, nsteps);
  arm_guards(o);
  o.faults.mem_faults.push_back(vel_flip(15));
  const JobResult healed = run_simulation(o, nsteps);
  expect_bitwise_equal(clean, healed);
  EXPECT_EQ(healed.health.mem_flips_injected, 1u);
  EXPECT_EQ(healed.health.integrity_detections, 1u);
  EXPECT_EQ(healed.health.integrity_rollbacks, 1u);
  ASSERT_EQ(healed.health.integrity_events.size(), 1u);
  const sim::IntegrityEvent& ev = healed.health.integrity_events[0];
  EXPECT_EQ(ev.detect_step, 15);  // flip at 15, guard cadence 5
  EXPECT_EQ(ev.resume_step, 10);  // newest checkpoint below the flip
  EXPECT_EQ(ev.verdict, "transient");
  EXPECT_NE(ev.reason.find("integrity"), std::string::npos);
}

TEST(Integrity, TransientFlipHealsBitwiseLjBarrier) {
  expect_transient_recovery(lj_case(), 30);
}

TEST(Integrity, TransientFlipHealsBitwiseLjAsync) {
  SimOptions o = lj_case();
  o.executor = "async";
  o.executor_threads = 3;
  expect_transient_recovery(o, 30);
}

TEST(Integrity, TransientFlipHealsBitwiseEamBarrier) {
  expect_transient_recovery(eam_case(), 30);
}

TEST(Integrity, TransientFlipHealsBitwiseEamAsync) {
  SimOptions o = eam_case();
  o.executor = "async";
  o.executor_threads = 3;
  expect_transient_recovery(o, 30);
}

TEST(Integrity, PersistentFlipEscalatesToIntegrityError) {
  SimOptions o = lj_case();
  arm_guards(o);
  o.faults.mem_faults.push_back(vel_flip(15, /*persistent=*/true));
  try {
    run_simulation(o, 30);
    FAIL() << "persistent corruption must not produce a trajectory";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.step(), 15);
    EXPECT_NE(std::string(e.what()).find("persistent corruption"),
              std::string::npos);
  }
}

TEST(Integrity, GhostFlipToNanIsDetectedAndHealed) {
  // NaN anywhere in the landed ghost block is caught by the position
  // scan regardless of which coordinate the word lands on, so force the
  // flip to produce one: the injector's deterministic faults accept any
  // bit, and 51..62 on word 1 of rank 0's ghost slab reliably denatures
  // the value; the scan also catches the huge-finite escape case.
  SimOptions o = lj_case();
  arm_guards(o);
  const JobResult clean = run_simulation(o, 30);
  tofu::MemFault f;
  f.step = 15;
  f.rank = 0;
  f.target = static_cast<int>(tofu::MemTarget::kGhostPos);
  f.word = 1;
  f.bit = 62;
  o.faults.mem_faults.push_back(f);
  const JobResult healed = run_simulation(o, 30);
  expect_bitwise_equal(clean, healed);
  EXPECT_EQ(healed.health.integrity_detections, 1u);
}

TEST(Integrity, ForceFlipIsDetectedAndHealed) {
  SimOptions o = lj_case();
  arm_guards(o);
  const JobResult clean = run_simulation(o, 30);
  tofu::MemFault f;
  f.step = 15;
  f.rank = 0;
  f.target = static_cast<int>(tofu::MemTarget::kForce);
  f.word = 4;
  f.bit = 62;
  o.faults.mem_faults.push_back(f);
  const JobResult healed = run_simulation(o, 30);
  expect_bitwise_equal(clean, healed);
  EXPECT_EQ(healed.health.integrity_detections, 1u);
}

TEST(Integrity, RollbackBudgetExhaustionIsTerminal) {
  SimOptions o = lj_case();
  arm_guards(o);
  o.integrity.max_rollbacks = 1;
  // Two distinct transient flips: the first consumes the only rollback,
  // the second must terminate even though a rollback would heal it.
  o.faults.mem_faults.push_back(vel_flip(15));
  tofu::MemFault second = vel_flip(25);
  second.word = 11;
  o.faults.mem_faults.push_back(second);
  try {
    run_simulation(o, 30);
    FAIL() << "rollback budget exhaustion must be terminal";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.step(), 25);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

TEST(Integrity, StochasticFlipRateInjectsAndRecovers) {
  SimOptions o = lj_case();
  arm_guards(o);
  o.checkpoint_every = 5;
  o.integrity.max_rollbacks = 64;
  o.faults.seed = 99;
  o.faults.mem_flip_rate = 0.02;
  o.faults.mem_flip_onset_step = 10;
  const JobResult r = run_simulation(o, 30);
  // The seeded identity hash makes the flip schedule a pure function of
  // the plan, so this run either saw flips (and healed every one) or
  // legitimately drew none — both end with a finished trajectory.
  EXPECT_EQ(r.health.integrity_detections, r.health.integrity_rollbacks);
  if (r.health.mem_flips_injected == 0) {
    EXPECT_EQ(r.health.integrity_detections, 0u);
  }
  const JobResult again = run_simulation(o, 30);
  EXPECT_EQ(r.health.mem_flips_injected, again.health.mem_flips_injected);
}

// --- checkpoint content hash and retention ------------------------------

TEST(Checkpoint, ContentHashSeesEveryField) {
  CheckpointState st;
  st.step = 10;
  st.rank_atoms.push_back({{1, {1.0, 2.0, 3.0}, {0.1, 0.2, 0.3}}});
  st.thermo.push_back({10, {}});
  const std::uint64_t ref = checkpoint_content_hash(st);
  EXPECT_EQ(checkpoint_content_hash(st), ref);
  CheckpointState mut = st;
  mut.rank_atoms[0][0].pos.x = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(mut.rank_atoms[0][0].pos.x) ^ 1ULL);
  EXPECT_NE(checkpoint_content_hash(mut), ref);
  mut = st;
  mut.step = 11;
  EXPECT_NE(checkpoint_content_hash(mut), ref);
  mut = st;
  mut.thermo[0].state.kinetic = 42.0;
  EXPECT_NE(checkpoint_content_hash(mut), ref);
}

TEST(Checkpoint, RetentionKeepsOnlyNewestK) {
  const std::string dir = ::testing::TempDir() + "lmp_keep_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = dir + "/run.ck";

  SimOptions o = lj_case();
  o.checkpoint_every = 5;
  o.checkpoint_path = prefix;
  o.checkpoint_keep = 2;
  run_simulation(o, 20);

  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_EQ(names.size(), 2u) << "retention must prune to keep-last-2";
  EXPECT_EQ(names[0], "run.ck.15");
  EXPECT_EQ(names[1], "run.ck.20");
  fs::remove_all(dir);
}

TEST(Checkpoint, RetentionZeroKeepsEverything) {
  const std::string dir = ::testing::TempDir() + "lmp_keep_all_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  SimOptions o = lj_case();
  o.checkpoint_every = 5;
  o.checkpoint_path = dir + "/run.ck";
  run_simulation(o, 20);
  std::size_t count = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++count;
  }
  EXPECT_EQ(count, 4u);  // steps 5, 10, 15, 20
  fs::remove_all(dir);
}

TEST(Checkpoint, PruneIgnoresForeignAndTmpFiles) {
  const std::string dir = ::testing::TempDir() + "lmp_prune_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto touch = [&](const std::string& name) {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  };
  touch("run.ck.5");
  touch("run.ck.10");
  touch("run.ck.15");
  touch("run.ck.12.tmp");   // in-flight atomic publish: never touched
  touch("run.ck.notastep"); // non-numeric suffix: not ours
  touch("other.ck.5");      // different prefix
  EXPECT_EQ(prune_checkpoints(dir + "/run.ck", 1), 2);
  EXPECT_FALSE(fs::exists(dir + "/run.ck.5"));
  EXPECT_FALSE(fs::exists(dir + "/run.ck.10"));
  EXPECT_TRUE(fs::exists(dir + "/run.ck.15"));
  EXPECT_TRUE(fs::exists(dir + "/run.ck.12.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/run.ck.notastep"));
  EXPECT_TRUE(fs::exists(dir + "/other.ck.5"));
  fs::remove_all(dir);
}

// --- chaos soak ---------------------------------------------------------

TEST(Integrity, ChaosSoakKillRestartStaysBitwiseIdentical) {
  // Everything at once: comm-layer message faults, a transient memory
  // flip, the async executor, a mid-run kill, and a restart from the
  // newest on-disk checkpoint. The reliability protocol absorbs the
  // fabric faults, the guards heal the flip, and the stitched run must
  // still match the clean uninterrupted trajectory bit for bit.
  const std::string dir = ::testing::TempDir() + "lmp_chaos_soak";
  fs::remove_all(dir);
  fs::create_directories(dir);

  SimOptions clean = lj_case();
  clean.executor = "async";
  clean.executor_threads = 3;
  const JobResult reference = run_simulation(clean, 30);

  SimOptions o = clean;
  arm_guards(o);
  o.checkpoint_path = dir + "/soak.ck";
  o.faults.seed = 1234;
  o.faults.drop_rate = 0.02;
  o.faults.delay_rate = 0.02;
  o.faults.duplicate_rate = 0.02;
  o.faults.corrupt_rate = 0.02;
  o.faults.mem_faults.push_back(vel_flip(15));

  // Incarnation 1: dies (run ends) at step 20 after healing the flip.
  const JobResult first = run_simulation(o, 20);
  EXPECT_EQ(first.health.integrity_detections, 1u);
  ASSERT_TRUE(fs::exists(dir + "/soak.ck.20"));

  // Incarnation 2: fresh process state, resumes from the durable
  // checkpoint. The flip step is behind the restart point, so the new
  // injector never re-fires it.
  o.restart_file = dir + "/soak.ck.20";
  const JobResult second = run_simulation(o, 30);
  EXPECT_EQ(second.restart_step, 20);
  EXPECT_EQ(second.health.integrity_detections, 0u);

  expect_bitwise_equal(reference, second);
  fs::remove_all(dir);
}

// --- option validation and fault-plan classification --------------------

TEST(Integrity, OptionValidationRejectsNonsense) {
  SimOptions o = lj_case();
  o.integrity.cadence = -1;
  EXPECT_THROW(run_simulation(o, 1), std::runtime_error);
  o = lj_case();
  o.integrity.cadence = 5;
  o.integrity.energy_tol = 0.0;
  EXPECT_THROW(run_simulation(o, 1), std::runtime_error);
  o = lj_case();
  o.checkpoint_keep = -1;
  EXPECT_THROW(run_simulation(o, 1), std::runtime_error);
}

TEST(FaultPlan, MemoryFaultsDoNotArmTheFabricInjector) {
  tofu::FaultPlan p;
  EXPECT_FALSE(p.any_faults());
  p.mem_faults.push_back(vel_flip(1));
  EXPECT_TRUE(p.memory_faults());
  EXPECT_TRUE(p.any_faults());
  EXPECT_FALSE(p.enabled());  // nothing fabric-side: wire stays fast-path
  tofu::FaultPlan q;
  q.mem_flip_rate = 0.5;
  EXPECT_TRUE(q.memory_faults());
  EXPECT_FALSE(q.enabled());
}

TEST(MemFaultInjector, TransientFiresOncePersistentRefires) {
  tofu::FaultPlan p;
  tofu::MemFault t = vel_flip(3);
  t.word = 0;
  p.mem_faults.push_back(t);
  tofu::MemFault s = vel_flip(3, /*persistent=*/true);
  s.word = 1;
  p.mem_faults.push_back(s);
  tofu::MemFaultInjector inj(p);
  std::vector<double> slab = {1.5, 1.5, 1.5};
  // Wrong step / wrong target / wrong rank: nothing fires.
  EXPECT_EQ(inj.apply(0, 2, tofu::MemTarget::kVel, slab.data(), 3), 0);
  EXPECT_EQ(inj.apply(0, 3, tofu::MemTarget::kPos, slab.data(), 3), 0);
  EXPECT_EQ(inj.apply(1, 3, tofu::MemTarget::kVel, slab.data(), 3), 0);
  EXPECT_EQ(bits(slab[0]), bits(1.5));
  // The matching visit flips both words.
  EXPECT_EQ(inj.apply(0, 3, tofu::MemTarget::kVel, slab.data(), 3), 2);
  EXPECT_NE(bits(slab[0]), bits(1.5));
  EXPECT_NE(bits(slab[1]), bits(1.5));
  // Revisit (the recompute): only the persistent fault re-fires.
  std::vector<double> again = {1.5, 1.5, 1.5};
  EXPECT_EQ(inj.apply(0, 3, tofu::MemTarget::kVel, again.data(), 3), 1);
  EXPECT_EQ(bits(again[0]), bits(1.5));
  EXPECT_NE(bits(again[1]), bits(1.5));
  EXPECT_EQ(inj.stats().flips_injected.load(), 3u);
  EXPECT_EQ(inj.stats().flips_suppressed.load(), 1u);
}

}  // namespace
}  // namespace lmp::sim
