#include "serve/job_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "comm/msg_codec.h"
#include "test_tmp.h"

namespace lmp::serve {
namespace {

using test::tmp_path;

JournalJob sample_job(std::uint64_t id, const std::string& tenant = "acme") {
  JournalJob j;
  j.id = id;
  j.tenant = tenant;
  j.name = "job-" + std::to_string(id);
  j.script = "units lj\nrun 10\n";
  j.deadline_ms = 5000;
  j.max_attempts = 3;
  return j;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
}

TEST(JobJournal, FreshJournalStartsEmpty) {
  JobJournal j;
  j.open(tmp_path("jj_fresh.journal"));
  EXPECT_TRUE(j.is_open());
  EXPECT_TRUE(j.jobs().empty());
  EXPECT_EQ(j.next_id(), 1u);
  EXPECT_EQ(j.recovery().jobs_seen, 0u);
}

TEST(JobJournal, SubmitAndStateSurviveReopen) {
  const std::string path = tmp_path("jj_roundtrip.journal");
  {
    JobJournal j;
    j.open(path);
    j.record_submit(sample_job(1));
    j.record_submit(sample_job(2, "beta"));
    j.record_state(1, JobState::kRunning, 1, 0, "", "");
    j.record_state(1, JobState::kRunning, 1, 10, "ck.10", "");
    j.record_state(2, JobState::kDone, 1, 10, "", "ok");
  }
  JobJournal j;
  j.open(path);
  ASSERT_EQ(j.jobs().size(), 2u);
  EXPECT_EQ(j.recovery().jobs_seen, 2u);
  EXPECT_EQ(j.next_id(), 3u);

  // Job 1 was mid-flight: requeued as pending, resuming from its newest
  // journaled checkpoint.
  const JournalJob& one = j.jobs().at(1);
  EXPECT_EQ(one.state, JobState::kPending);
  EXPECT_EQ(one.completed_steps, 10);
  EXPECT_EQ(one.restart_file, "ck.10");
  EXPECT_EQ(one.attempts, 1);
  EXPECT_EQ(one.script, "units lj\nrun 10\n");
  EXPECT_EQ(j.recovery().requeued, 1u);

  // Job 2 finished: stays done, and compaction shed its script text.
  const JournalJob& two = j.jobs().at(2);
  EXPECT_EQ(two.state, JobState::kDone);
  EXPECT_EQ(two.detail, "ok");
  EXPECT_TRUE(two.script.empty());
}

TEST(JobJournal, IntegrityCountersSurviveReopenAndAccumulate) {
  const std::string path = tmp_path("jj_integrity.journal");
  {
    JobJournal j;
    j.open(path);
    JournalJob job = sample_job(1);
    job.integrity_detections = 2;  // carried over from a prior incarnation
    job.integrity_rollbacks = 2;
    j.record_submit(job);
    // Two slices, each adding one detection+rollback to the history.
    j.record_state(1, JobState::kRunning, 1, 10, "ck.10", "", 3, 3);
    j.record_state(1, JobState::kDone, 1, 20, "", "ok", 4, 4);
  }
  JobJournal j;
  j.open(path);
  ASSERT_EQ(j.jobs().size(), 1u);
  const JournalJob& one = j.jobs().at(1);
  EXPECT_EQ(one.state, JobState::kDone);
  EXPECT_EQ(one.integrity_detections, 4u);
  EXPECT_EQ(one.integrity_rollbacks, 4u);

  // Compaction (the reopen rewrote the file) must preserve them too.
  j.close();
  JobJournal j2;
  j2.open(path);
  EXPECT_EQ(j2.jobs().at(1).integrity_detections, 4u);
  EXPECT_EQ(j2.jobs().at(1).integrity_rollbacks, 4u);
}

TEST(JobJournal, TornTailIsTruncatedNotFatal) {
  const std::string path = tmp_path("jj_torn.journal");
  {
    JobJournal j;
    j.open(path);
    j.record_submit(sample_job(1));
    j.record_state(1, JobState::kDone, 1, 10, "", "ok");
  }
  // Simulate a crash mid-append: a partial record at the tail.
  std::vector<char> rec;
  {
    comm::WireWriter w;
    w.u64(1);
    w.u8(static_cast<std::uint8_t>(JobState::kFailed));
    std::vector<char> frame;
    // Pre-size the buffer: GCC 12's stringop-overflow analysis mis-models
    // the inlined grow-from-empty insert under TSan instrumentation and
    // fails the -Werror build with a false positive otherwise.
    frame.reserve(64);
    comm::append_frame(frame, 0x4A02, w.bytes().data(), w.bytes().size());
    rec.assign(frame.begin(), frame.begin() + static_cast<long>(frame.size()) - 5);
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  }

  JobJournal j;
  j.open(path);
  EXPECT_EQ(j.recovery().torn_bytes, rec.size());
  ASSERT_EQ(j.jobs().size(), 1u);
  // The torn record never happened: the job keeps its last durable state.
  EXPECT_EQ(j.jobs().at(1).state, JobState::kDone);

  // After compaction the file is clean: a third open sees no tearing.
  JobJournal j2;
  j.close();
  j2.open(path);
  EXPECT_EQ(j2.recovery().torn_bytes, 0u);
  EXPECT_EQ(j2.jobs().at(1).state, JobState::kDone);
}

TEST(JobJournal, MidFileCorruptionIsRefused) {
  const std::string path = tmp_path("jj_corrupt.journal");
  {
    JobJournal j;
    j.open(path);
    j.record_submit(sample_job(1));
    j.record_state(1, JobState::kDone, 1, 10, "", "ok");
  }
  std::vector<char> bytes = read_file(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip a bit mid-file
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  JobJournal j;
  EXPECT_THROW(j.open(path), std::runtime_error);
}

TEST(JobJournal, DuplicateSubmitAndUnknownStateAreRejected) {
  JobJournal j;
  j.open(tmp_path("jj_dup.journal"));
  j.record_submit(sample_job(1));
  EXPECT_THROW(j.record_submit(sample_job(1)), std::runtime_error);
  EXPECT_THROW(j.record_state(99, JobState::kDone, 1, 0, "", ""),
               std::runtime_error);
}

TEST(JobJournal, CompactionBoundsGrowthAcrossReopens) {
  const std::string path = tmp_path("jj_compact.journal");
  {
    JobJournal j;
    j.open(path);
    j.record_submit(sample_job(1));
    // Many progress records — the raw log grows per record.
    for (int s = 10; s <= 200; s += 10) {
      j.record_state(1, JobState::kRunning, 1, s, "ck." + std::to_string(s),
                     "");
    }
    j.record_state(1, JobState::kDone, 1, 200, "", "ok");
  }
  const std::size_t raw = read_file(path).size();
  {
    JobJournal j;
    j.open(path);  // compacts: one folded record replaces the history
  }
  const std::size_t compacted = read_file(path).size();
  EXPECT_LT(compacted, raw / 2);

  JobJournal j;
  j.open(path);
  EXPECT_EQ(j.jobs().at(1).state, JobState::kDone);
  EXPECT_EQ(j.jobs().at(1).completed_steps, 200);
}

TEST(JobJournal, JournalFedToProtocolEndpointIsNotMisparsed) {
  // The journal's record types live outside the protocol's range, so a
  // confused client (or operator) pointing one at the other gets a
  // structured "unknown type", never a misparse.
  const std::string path = tmp_path("jj_types.journal");
  {
    JobJournal j;
    j.open(path);
    j.record_submit(sample_job(1));
  }
  const std::vector<char> bytes = read_file(path);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const comm::FrameView f =
        comm::decode_frame(bytes.data() + off, bytes.size() - off);
    ASSERT_TRUE(f.ok());
    EXPECT_GE(f.type, 0x4A00);
    EXPECT_LE(f.type, 0x4A02);
    off += f.consumed;
  }
}

}  // namespace
}  // namespace lmp::serve
