#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/simulation.h"
#include "util/durable_file.h"
#include "test_tmp.h"

namespace lmp {
namespace {

using test::tmp_path;

sim::CheckpointState sample_state() {
  sim::CheckpointState st;
  st.step = 40;
  st.checkpoint_every = 20;
  st.comm_variant = "6tni_p2p";
  st.seed = 87287;
  st.cells = {4, 4, 4};
  st.rank_grid = {2, 1, 1};
  st.natoms = 4;
  st.box = {{0, 0, 0}, {6.7, 6.7, 6.7}};
  st.rank_atoms = {
      {{7, {1.0, 2.0, 3.0}, {-0.5, 0.25, 0.125}},
       {11, {0.1, 0.2, 0.3}, {1.5, -2.5, 3.5}}},
      {{2, {4.0, 5.0, 6.0}, {0.0, 0.0, -1.0}},
       {3, {6.5, 6.5, 6.5}, {1e-17, -1e300, 0.0}}},
  };
  st.thermo = {{20, {1.25, -2.5, 100.0, -1300.0}},
               {40, {1.125, -2.25, 99.0, -1299.0}}};
  return st;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good());
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(Checkpoint, Crc32KnownVectors) {
  // The reflected 0xEDB88320 CRC-32 of "123456789" is the classic check
  // value — pins the polynomial and bit order.
  const char msg[] = "123456789";
  EXPECT_EQ(sim::checkpoint_crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(sim::checkpoint_crc32(nullptr, 0), 0u);
}

TEST(Checkpoint, RoundTripIsBitwise) {
  const sim::CheckpointState a = sample_state();
  const std::string path = tmp_path("ckpt_roundtrip.bin");
  sim::write_checkpoint(path, a);
  const sim::CheckpointState b = sim::read_checkpoint(path);

  EXPECT_EQ(b.step, a.step);
  EXPECT_EQ(b.checkpoint_every, a.checkpoint_every);
  EXPECT_EQ(b.comm_variant, a.comm_variant);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_TRUE(b.cells == a.cells);
  EXPECT_TRUE(b.rank_grid == a.rank_grid);
  EXPECT_EQ(b.natoms, a.natoms);
  EXPECT_EQ(b.box.lo.x, a.box.lo.x);
  EXPECT_EQ(b.box.hi.z, a.box.hi.z);
  ASSERT_EQ(b.rank_atoms.size(), a.rank_atoms.size());
  for (std::size_t r = 0; r < a.rank_atoms.size(); ++r) {
    ASSERT_EQ(b.rank_atoms[r].size(), a.rank_atoms[r].size());
    for (std::size_t i = 0; i < a.rank_atoms[r].size(); ++i) {
      EXPECT_EQ(b.rank_atoms[r][i].tag, a.rank_atoms[r][i].tag);
      // Exact compares: doubles must survive the file bit-for-bit.
      EXPECT_EQ(b.rank_atoms[r][i].pos.x, a.rank_atoms[r][i].pos.x);
      EXPECT_EQ(b.rank_atoms[r][i].pos.y, a.rank_atoms[r][i].pos.y);
      EXPECT_EQ(b.rank_atoms[r][i].pos.z, a.rank_atoms[r][i].pos.z);
      EXPECT_EQ(b.rank_atoms[r][i].vel.x, a.rank_atoms[r][i].vel.x);
      EXPECT_EQ(b.rank_atoms[r][i].vel.y, a.rank_atoms[r][i].vel.y);
      EXPECT_EQ(b.rank_atoms[r][i].vel.z, a.rank_atoms[r][i].vel.z);
    }
  }
  ASSERT_EQ(b.thermo.size(), a.thermo.size());
  EXPECT_EQ(b.thermo[1].step, 40);
  EXPECT_EQ(b.thermo[1].state.kinetic, 99.0);
  std::remove(path.c_str());
}

TEST(Checkpoint, WriteIsAtomicNoTmpLeftBehind) {
  const std::string path = tmp_path("ckpt_atomic.bin");
  sim::write_checkpoint(path, sample_state());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());  // published via rename, staging file gone
  EXPECT_NO_THROW(sim::read_checkpoint(path));
  std::remove(path.c_str());
}

TEST(Checkpoint, WriteIsDurableFsyncsFileAndParentDir) {
  if (!util::fsync_supported()) GTEST_SKIP() << "no fsync on this platform";
  const std::string path = tmp_path("ckpt_durable.bin");
  const std::uint64_t before = util::fsyncs_issued();
  sim::write_checkpoint(path, sample_state());
  const std::uint64_t after = util::fsyncs_issued();
  // One fsync for the tmp file's data, one for the parent directory
  // entry after the rename — both are required for power-loss safety.
  EXPECT_GE(after - before, 2u);
  EXPECT_NO_THROW(sim::read_checkpoint(path));
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptedByteFailsCrc) {
  const std::string path = tmp_path("ckpt_corrupt.bin");
  sim::write_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  // Flip one byte well inside the ranks section payload.
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    sim::read_checkpoint(path);
    FAIL() << "expected CRC failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncationDetected) {
  const std::string path = tmp_path("ckpt_trunc.bin");
  sim::write_checkpoint(path, sample_state());
  std::vector<char> bytes = slurp(path);
  bytes.resize(bytes.size() - 9);  // cut into the end marker
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    sim::read_checkpoint(path);
    FAIL() << "expected truncation failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, BadMagicAndVersionRejected) {
  const std::string path = tmp_path("ckpt_magic.bin");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "NOTACKPTxxxxxxxx";
  }
  EXPECT_THROW(sim::read_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(sim::read_checkpoint(tmp_path("ckpt_missing.bin")),
               std::runtime_error);
}

// --- restart determinism -------------------------------------------------

sim::SimOptions restart_opts(const std::string& variant) {
  sim::SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = variant;
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

class RestartBitwise : public ::testing::TestWithParam<const char*> {};

TEST_P(RestartBitwise, InterruptedRunEqualsUninterrupted) {
  const std::string variant = GetParam();
  const std::string prefix = tmp_path("ckpt_restart_" + variant);

  // Uninterrupted 30-step run, checkpointing every 10 steps.
  sim::SimOptions full = restart_opts(variant);
  full.checkpoint_path = prefix;
  const sim::JobResult a = sim::run_simulation(full, 30);
  EXPECT_EQ(a.health.checkpoints_written, 3u);
  EXPECT_EQ(a.restart_step, 0);

  // "Kill" after step 20: resume from the step-20 file and finish.
  sim::SimOptions resumed = restart_opts(variant);
  resumed.restart_file = prefix + ".20";
  const sim::JobResult b = sim::run_simulation(resumed, 30);
  EXPECT_EQ(b.restart_step, 20);

  expect_atoms_bitwise_equal(a.atoms, b.atoms);
  ASSERT_EQ(a.thermo.size(), b.thermo.size());
  for (std::size_t i = 0; i < a.thermo.size(); ++i) {
    EXPECT_EQ(a.thermo[i].step, b.thermo[i].step);
    EXPECT_EQ(a.thermo[i].state.temperature, b.thermo[i].state.temperature);
    EXPECT_EQ(a.thermo[i].state.pressure, b.thermo[i].state.pressure);
    EXPECT_EQ(a.thermo[i].state.total(), b.thermo[i].state.total());
  }
  for (int s : {10, 20, 30}) {
    std::remove((prefix + "." + std::to_string(s)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, RestartBitwise,
                         ::testing::Values("ref", "6tni_p2p"));

TEST(Restart, AdoptsScheduleFromFileAndRejectsMismatch) {
  const std::string prefix = tmp_path("ckpt_sched");
  sim::SimOptions full = restart_opts("ref");
  full.checkpoint_path = prefix;
  const sim::JobResult a = sim::run_simulation(full, 20);

  // checkpoint_every omitted: adopted from the file, trajectory matches.
  sim::SimOptions adopt = restart_opts("ref");
  adopt.checkpoint_every = 0;
  adopt.restart_file = prefix + ".10";
  const sim::JobResult b = sim::run_simulation(adopt, 20);
  expect_atoms_bitwise_equal(a.atoms, b.atoms);

  // A different explicit schedule would change the forced-rebuild steps.
  sim::SimOptions clash = restart_opts("ref");
  clash.checkpoint_every = 7;
  clash.restart_file = prefix + ".10";
  EXPECT_THROW(sim::run_simulation(clash, 20), std::runtime_error);

  for (int s : {10, 20}) {
    std::remove((prefix + "." + std::to_string(s)).c_str());
  }
}

TEST(Restart, GeometryMismatchRejected) {
  const std::string prefix = tmp_path("ckpt_geom");
  sim::SimOptions full = restart_opts("ref");
  full.checkpoint_path = prefix;
  (void)sim::run_simulation(full, 10);

  sim::SimOptions wrong = restart_opts("ref");
  wrong.cells = {5, 4, 4};
  wrong.restart_file = prefix + ".10";
  EXPECT_THROW(sim::run_simulation(wrong, 10), std::runtime_error);

  wrong = restart_opts("ref");
  wrong.seed = 999;
  wrong.restart_file = prefix + ".10";
  EXPECT_THROW(sim::run_simulation(wrong, 10), std::runtime_error);

  wrong = restart_opts("ref");
  wrong.rank_grid = {1, 2, 1};
  wrong.restart_file = prefix + ".10";
  EXPECT_THROW(sim::run_simulation(wrong, 10), std::runtime_error);

  std::remove((prefix + ".10").c_str());
}

}  // namespace
}  // namespace lmp
