#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "comm/msg_codec.h"
#include "serve/job_journal.h"
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
  // Rank 0 was cut mid-epoch; rank 1 carries no key ("equal to pos").
  st.rank_rebuild_pos = {{{0.75, 2.0, 3.0}, {0.1, 0.125, 0.3}}, {}};
  st.thermo = {{20, {1.25, -2.5, 100.0, -1300.0}},
               {40, {1.125, -2.25, 99.0, -1299.0}}};
  return st;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good());
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Writes `bytes` as a new file at `path`. (Truncating an existing file
/// in place makes ext4 flush it on close, tens of ms per write, which a
/// loop over every byte offset cannot afford.)
void spit(const std::string& path, const std::vector<char>& bytes) {
  std::remove(path.c_str());
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The bytes `read_checkpoint` sees for `sample_state()`.
std::vector<char> sample_file(const std::string& path) {
  sim::write_checkpoint(path, sample_state());
  return slurp(path);
}

template <class T>
void append_raw(std::vector<char>& out, T v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

/// Offset of the first occurrence of `pattern` in `bytes`, or npos.
std::size_t find_bytes(const std::vector<char>& bytes,
                       const std::vector<char>& pattern) {
  const auto it = std::search(bytes.begin(), bytes.end(), pattern.begin(),
                              pattern.end());
  return it == bytes.end() ? std::string::npos
                           : static_cast<std::size_t>(it - bytes.begin());
}

/// Sets the integer at `at` to `value` and keeps every CRC-32 over it
/// valid, whatever the file format. CRC-32 is linear: XOR-ing a
/// difference into a CRC'd range changes the CRC by the difference's raw
/// CRC (zero init, no final xor), and a zero raw state stays zero over
/// the bytes that follow. Feeding a raw state its own four little-endian
/// bytes zeroes it, so XOR-ing the state reached at `fix_at` into the
/// four bytes there cancels the change. Those four bytes (after the
/// field, in the same CRC'd range) are overwritten.
template <class T>
void forge(std::vector<char>& bytes, std::size_t at, T value,
           std::size_t fix_at) {
  ASSERT_GE(fix_at, at + sizeof(T));
  ASSERT_LE(fix_at + 4, bytes.size());
  T old;
  std::memcpy(&old, bytes.data() + at, sizeof old);
  const T delta = old ^ value;
  std::vector<char> diff(fix_at - at, 0);
  std::memcpy(diff.data(), &delta, sizeof delta);
  const std::uint32_t fix = comm::crc32_update(0, diff.data(), diff.size());
  for (std::size_t i = 0; i < sizeof(T); ++i) bytes[at + i] ^= diff[i];
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[fix_at + i] ^= static_cast<char>(fix >> (8 * i));
  }
}

/// read_checkpoint's message for `bytes`, or "" if it read them.
std::string read_error(const std::string& path,
                       const std::vector<char>& bytes) {
  spit(path, bytes);
  try {
    sim::read_checkpoint(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
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
  ASSERT_EQ(b.rank_rebuild_pos.size(), a.rank_rebuild_pos.size());
  for (std::size_t r = 0; r < a.rank_rebuild_pos.size(); ++r) {
    ASSERT_EQ(b.rank_rebuild_pos[r].size(), a.rank_rebuild_pos[r].size());
    for (std::size_t i = 0; i < a.rank_rebuild_pos[r].size(); ++i) {
      EXPECT_EQ(b.rank_rebuild_pos[r][i].x, a.rank_rebuild_pos[r][i].x);
      EXPECT_EQ(b.rank_rebuild_pos[r][i].y, a.rank_rebuild_pos[r][i].y);
      EXPECT_EQ(b.rank_rebuild_pos[r][i].z, a.rank_rebuild_pos[r][i].z);
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
  bytes.resize(bytes.size() - 9);  // cut into the last (thermo) frame
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

TEST(Checkpoint, EveryPrefixAndEveryBitFlipRefused) {
  // Run under ASan, this also shows no read leaves the file's buffer.
  const std::string path = tmp_path("ckpt_prefix_flip.bin");
  const std::vector<char> file = sample_file(path);
  for (std::size_t cut = 0; cut < file.size(); ++cut) {
    const std::vector<char> prefix(file.begin(),
                                   file.begin() + static_cast<long>(cut));
    const std::string msg = read_error(path, prefix);
    EXPECT_NE(msg.find("truncated"), std::string::npos)
        << "prefix of " << cut << " bytes: '" << msg << "'";
  }
  for (std::size_t i = 0; i < file.size(); ++i) {
    std::vector<char> flipped = file;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    EXPECT_NE(read_error(path, flipped), "") << "flip at byte " << i;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, JournalAndCheckpointRefuseEachOther) {
  const std::string journal = tmp_path("ckpt_vs_journal.journal");
  {
    serve::JobJournal j;
    j.open(journal);  // a fresh journal: its header record
  }
  try {
    sim::read_checkpoint(journal);
    FAIL() << "a journal read as a checkpoint";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a checkpoint"),
              std::string::npos) << e.what();
  }

  const std::string ckpt = tmp_path("ckpt_vs_journal.bin");
  sim::write_checkpoint(ckpt, sample_state());
  serve::JobJournal j;
  EXPECT_THROW(j.open(ckpt), std::runtime_error);
  std::remove(journal.c_str());
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, LegacyFormatRefused) {
  // Version 1 files began with an 8-byte magic and tagged sections.
  std::vector<char> legacy = {'L', 'M', 'P', 'C', 'K', 'P', 'T', '1'};
  append_raw<std::uint32_t>(legacy, 1);
  append_raw<std::uint32_t>(legacy, 1);  // first section tag (meta)
  append_raw<std::uint64_t>(legacy, 0);
  const std::string msg =
      read_error(tmp_path("ckpt_legacy.bin"), legacy);
  EXPECT_NE(msg.find("not a checkpoint"), std::string::npos) << msg;
  EXPECT_NE(msg.find("frame 0"), std::string::npos) << msg;
}

TEST(Checkpoint, OtherVersionsRejectedByNumber) {
  const std::string path = tmp_path("ckpt_version.bin");
  const std::vector<char> file = sample_file(path);
  const comm::FrameView header = comm::decode_frame(file.data(), file.size());
  ASSERT_TRUE(header.ok());
  // Version 2 is the format before the rebuild positions.
  for (std::uint32_t version : {1u, 2u, 4u}) {
    comm::WireWriter w;
    w.u32(version);
    std::vector<char> bytes;
    comm::append_frame(bytes, header.type, w.bytes().data(),
                       w.bytes().size());
    bytes.insert(bytes.end(),
                 file.begin() + static_cast<long>(header.consumed),
                 file.end());
    const std::string msg = read_error(path, bytes);
    EXPECT_NE(msg.find("unsupported version " + std::to_string(version)),
              std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ForgedAtomCountFailsWithoutAllocating) {
  // A CRC-valid file whose rank 0 declares 2^40 atoms (about 60 TB of
  // AtomState): the count must be refused against the bytes behind it,
  // as a runtime_error, before anything is sized by it.
  const std::string path = tmp_path("ckpt_forged_atoms.bin");
  std::vector<char> file = sample_file(path);
  std::vector<char> pattern;
  append_raw<std::int64_t>(pattern, 2);  // rank 0's atom count...
  append_raw<std::int64_t>(pattern, 7);  // ...then its first tag
  const std::size_t at = find_bytes(file, pattern);
  ASSERT_NE(at, std::string::npos);
  forge<std::int64_t>(file, at, std::int64_t{1} << 40, at + 8);
  const std::string msg = read_error(path, file);
  EXPECT_NE(msg.find("count"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("CRC"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Checkpoint, ForgedRebuildCountFailsWithoutAllocating) {
  // Rank 0's rebuild position count forged to 2^40: it must match the
  // atom count, and is refused before anything is sized by it.
  const std::string path = tmp_path("ckpt_forged_key.bin");
  std::vector<char> file = sample_file(path);
  std::vector<char> pattern;
  append_raw<std::int64_t>(pattern, 2);  // rank 0's key count...
  append_raw<double>(pattern, 0.75);     // ...then its first position
  const std::size_t at = find_bytes(file, pattern);
  ASSERT_NE(at, std::string::npos);
  forge<std::int64_t>(file, at, std::int64_t{1} << 40, at + 8);
  const std::string msg = read_error(path, file);
  EXPECT_NE(msg.find("rank 0's rebuild position count mismatch"),
            std::string::npos) << msg;
  EXPECT_EQ(msg.find("CRC"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Checkpoint, ForgedRankCountFailsWithoutAllocating) {
  // The meta frame's rank count forged to INT32_MAX: each rank needs an
  // atoms frame, so the reader meets the thermo frame after rank 1.
  const std::string path = tmp_path("ckpt_forged_ranks.bin");
  std::vector<char> file = sample_file(path);
  std::vector<char> pattern;
  append_raw<std::int32_t>(pattern, 2);  // rank count, then the variant
  append_raw<std::uint32_t>(pattern, 8);
  pattern.insert(pattern.end(), {'6', 't', 'n', 'i', '_', 'p', '2', 'p'});
  const std::size_t at = find_bytes(file, pattern);
  ASSERT_NE(at, std::string::npos);
  // The correction lands in the variant's characters, which decode as
  // any string.
  forge<std::int32_t>(file, at, INT32_MAX, at + 8);
  const std::string msg = read_error(path, file);
  EXPECT_NE(msg.find("expected the atoms frame at frame 4"),
            std::string::npos) << msg;
  std::remove(path.c_str());
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

void expect_runs_bitwise_equal(const sim::JobResult& a,
                               const sim::JobResult& b) {
  expect_atoms_bitwise_equal(a.atoms, b.atoms);
  ASSERT_EQ(a.thermo.size(), b.thermo.size());
  for (std::size_t i = 0; i < a.thermo.size(); ++i) {
    EXPECT_EQ(a.thermo[i].step, b.thermo[i].step);
    EXPECT_EQ(a.thermo[i].state.temperature, b.thermo[i].state.temperature);
    EXPECT_EQ(a.thermo[i].state.pressure, b.thermo[i].state.pressure);
    EXPECT_EQ(a.thermo[i].state.total(), b.thermo[i].state.total());
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

  // "Kill" after step 10 or 20 and resume from that file. Neighbor
  // lists rebuild every 20 steps, so the step-10 file was cut mid-epoch
  // and the step-20 file on a rebuild.
  for (int step : {10, 20}) {
    sim::SimOptions resumed = restart_opts(variant);
    resumed.restart_file = prefix + "." + std::to_string(step);
    const sim::JobResult b = sim::run_simulation(resumed, 30);
    EXPECT_EQ(b.restart_step, step);
    expect_runs_bitwise_equal(a, b);
  }
  for (int s : {10, 20, 30}) {
    std::remove((prefix + "." + std::to_string(s)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, RestartBitwise,
                         ::testing::Values("ref", "6tni_p2p"));

TEST(Restart, AnyCadenceEqualsUninterrupted) {
  // A checkpoint carries its neighbor epoch, so a mid-epoch file resumes
  // under no cadence, its own or any other to the same trajectory.
  const std::string prefix = tmp_path("ckpt_sched");
  sim::SimOptions full = restart_opts("ref");
  full.checkpoint_every = 7;
  full.checkpoint_path = prefix;
  const sim::JobResult a = sim::run_simulation(full, 30);

  for (int every : {0, 7, 10, 3}) {
    sim::SimOptions resumed = restart_opts("ref");
    resumed.checkpoint_every = every;
    resumed.restart_file = prefix + ".14";
    const sim::JobResult b = sim::run_simulation(resumed, 30);
    EXPECT_EQ(b.restart_step, 14);
    expect_runs_bitwise_equal(a, b);
  }
  for (int s : {7, 14, 21, 28}) {
    std::remove((prefix + "." + std::to_string(s)).c_str());
  }
}

TEST(Restart, RebuildPositionOutsideSubBoxRefused) {
  // A key that puts one of rank 0's atoms in rank 1's sub-box would make
  // the startup exchange move it, and its current position would land on
  // another atom: the restart refuses instead.
  const std::string prefix = tmp_path("ckpt_badkey");
  sim::SimOptions full = restart_opts("ref");
  full.checkpoint_path = prefix;
  (void)sim::run_simulation(full, 10);
  sim::CheckpointState st = sim::read_checkpoint(prefix + ".10");
  ASSERT_FALSE(st.rank_rebuild_pos.at(0).empty());
  st.rank_rebuild_pos[0][0].x = 0.75 * st.box.hi.x;
  sim::write_checkpoint(prefix + ".bad", st);

  sim::SimOptions resumed = restart_opts("ref");
  resumed.restart_file = prefix + ".bad";
  try {
    (void)sim::run_simulation(resumed, 20);
    FAIL() << "a key outside the sub-box was replayed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rebuild positions leave its sub-box"),
              std::string::npos) << e.what();
  }
  std::remove((prefix + ".10").c_str());
  std::remove((prefix + ".bad").c_str());
}

// --- the checkpoint cadence is no part of the trajectory ----------------

using CadenceCase = std::tuple<bool, bool, std::string, std::string>;

class CheckpointCadence : public ::testing::TestWithParam<CadenceCase> {};

TEST_P(CheckpointCadence, EverySevenStepsEqualsNone) {
  const auto [eam, check, executor, variant] = GetParam();
  sim::SimOptions o;
  o.config = eam ? md::SimConfig::eam_copper() : md::SimConfig::lj_melt();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = variant;
  o.executor = executor;
  o.thermo_every = 5;
  // Checkpoints at steps 7, 14, 21 and 28 all fall inside an epoch.
  o.config.neigh = {check ? 5 : 10, check};
  const sim::JobResult plain = sim::run_simulation(o, 30);
  o.checkpoint_every = 7;
  const sim::JobResult checkpointed = sim::run_simulation(o, 30);
  EXPECT_EQ(checkpointed.health.checkpoints_written, 4u);
  expect_runs_bitwise_equal(plain, checkpointed);
}

std::string cadence_case_name(const ::testing::TestParamInfo<CadenceCase>& info) {
  const auto [eam, check, executor, variant] = info.param;
  return std::string(eam ? "Eam" : "Lj") + (check ? "CheckYes" : "CheckNo") +
         "_" + executor + "_" + variant;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CheckpointCadence,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(std::string("barrier"),
                                         std::string("async")),
                       ::testing::Values(std::string("6tni_p2p"),
                                         std::string("ref"))),
    cadence_case_name);

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
