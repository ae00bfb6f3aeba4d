#include "serve/job_journal.h"

#include <fstream>
#include <stdexcept>

namespace lmp::serve {

using comm::WireReader;
using comm::WireWriter;

namespace {

// Journal record types — a private range disjoint from MsgType so a
// journal file handed to the protocol endpoint (or vice versa) is
// refused as unknown instead of misparsed.
constexpr std::uint16_t kRecHeader = 0x4A00;
constexpr std::uint16_t kRecSubmit = 0x4A01;
constexpr std::uint16_t kRecState = 0x4A02;

// v2 added the per-job integrity counters to submit and state records.
constexpr std::uint32_t kJournalVersion = 2;

void encode_job(WireWriter& w, const JournalJob& j) {
  w.u64(j.id);
  w.str(j.tenant);
  w.str(j.name);
  w.str(j.script);
  w.u32(j.deadline_ms);
  w.u16(j.max_attempts);
  w.u8(static_cast<std::uint8_t>(j.state));
  w.u16(j.attempts);
  w.i32(j.completed_steps);
  w.str(j.restart_file);
  w.str(j.detail);
  w.u64(j.integrity_detections);
  w.u64(j.integrity_rollbacks);
}

JournalJob decode_job(const char* payload, std::size_t len) {
  WireReader r(payload, len, "job journal submit record");
  JournalJob j;
  j.id = r.u64();
  j.tenant = r.str();
  j.name = r.str();
  j.script = r.str();
  j.deadline_ms = r.u32();
  j.max_attempts = r.u16();
  j.state = to_job_state(r.u8());
  j.attempts = r.u16();
  j.completed_steps = r.i32();
  j.restart_file = r.str();
  j.detail = r.str();
  j.integrity_detections = r.u64();
  j.integrity_rollbacks = r.u64();
  r.expect_done();
  return j;
}

std::vector<char> make_header_record() {
  WireWriter w;
  w.u32(kJournalVersion);
  std::vector<char> out;
  comm::append_frame(out, kRecHeader, w.bytes().data(), w.bytes().size());
  return out;
}

std::vector<char> make_submit_record(const JournalJob& j) {
  WireWriter w;
  encode_job(w, j);
  std::vector<char> out;
  comm::append_frame(out, kRecSubmit, w.bytes().data(), w.bytes().size());
  return out;
}

}  // namespace

void JobJournal::open(const std::string& path) {
  log_.close();
  path_ = path;
  jobs_.clear();
  recovery_ = RecoveryInfo{};

  // Replay the existing log (if any) into the folded table.
  std::vector<char> file;
  {
    std::ifstream is(path, std::ios::binary);
    if (is) {
      file.assign(std::istreambuf_iterator<char>(is),
                  std::istreambuf_iterator<char>());
    }
  }

  if (file.empty()) {
    log_.open(path);
    const std::vector<char> hdr = make_header_record();
    log_.append(hdr.data(), hdr.size(), /*sync=*/true);
    return;
  }

  std::size_t off = 0;
  bool saw_header = false;
  while (off < file.size()) {
    const comm::FrameView f =
        comm::decode_frame(file.data() + off, file.size() - off);
    if (f.status == comm::FrameStatus::kNeedMore) {
      // A crash mid-append leaves exactly one partial record at the
      // tail. Drop it (compact() below rewrites the log without it);
      // everything before it is intact (CRC'd).
      recovery_.torn_bytes = file.size() - off;
      break;
    }
    if (!f.ok()) {
      // Mid-file corruption is not a crash signature — refuse loudly
      // rather than silently dropping jobs.
      throw std::runtime_error("job journal: corrupt record at offset " +
                               std::to_string(off) + " in " + path);
    }
    switch (f.type) {
      case kRecHeader: {
        WireReader r(f.payload, f.payload_len, "job journal header");
        const std::uint32_t version = r.u32();
        r.expect_done();
        if (version != kJournalVersion) {
          throw std::runtime_error("job journal: unsupported version " +
                                   std::to_string(version) + " in " + path);
        }
        saw_header = true;
        break;
      }
      case kRecSubmit: {
        const JournalJob j = decode_job(f.payload, f.payload_len);
        jobs_[j.id] = j;
        break;
      }
      case kRecState: {
        WireReader r(f.payload, f.payload_len, "job journal state record");
        const std::uint64_t id = r.u64();
        const JobState state = to_job_state(r.u8());
        const std::uint16_t attempts = r.u16();
        const std::int32_t steps = r.i32();
        const std::string restart = r.str();
        const std::string detail = r.str();
        const std::uint64_t detections = r.u64();
        const std::uint64_t rollbacks = r.u64();
        r.expect_done();
        auto it = jobs_.find(id);
        if (it == jobs_.end()) {
          throw std::runtime_error(
              "job journal: state record for unknown job " +
              std::to_string(id) + " in " + path);
        }
        it->second.state = state;
        it->second.attempts = attempts;
        it->second.completed_steps = steps;
        it->second.restart_file = restart;
        it->second.detail = detail;
        it->second.integrity_detections = detections;
        it->second.integrity_rollbacks = rollbacks;
        break;
      }
      default:
        throw std::runtime_error("job journal: unknown record type " +
                                 std::to_string(f.type) + " in " + path);
    }
    off += f.consumed;
  }
  if (!saw_header) {
    throw std::runtime_error("job journal: missing header record in " + path);
  }

  recovery_.jobs_seen = jobs_.size();
  for (auto& [id, j] : jobs_) {
    if (!is_terminal(j.state)) {
      // The server died while this job was queued or mid-run: requeue.
      // Its restart_file still points at the newest durable checkpoint,
      // so the resumed attempt continues instead of starting over.
      j.state = JobState::kPending;
      ++recovery_.requeued;
    }
  }

  compact();
  recovery_.compacted = true;
}

void JobJournal::compact() {
  std::vector<char> out = make_header_record();
  for (auto& [id, j] : jobs_) {
    // Terminal jobs shed their script text — in memory AND on disk, so
    // the folded table always mirrors what a reopen would see.
    if (is_terminal(j.state)) j.script.clear();
    const std::vector<char> rec = make_submit_record(j);
    out.insert(out.end(), rec.begin(), rec.end());
  }
  util::write_file_durable(path_, out.data(), out.size());
  log_.close();
  log_.open(path_);
}

std::uint64_t JobJournal::next_id() const {
  return jobs_.empty() ? 1 : jobs_.rbegin()->first + 1;
}

void JobJournal::record_submit(const JournalJob& job) {
  if (!log_.is_open()) throw std::runtime_error("job journal: not open");
  if (jobs_.count(job.id) != 0) {
    throw std::runtime_error("job journal: duplicate submit for job " +
                             std::to_string(job.id));
  }
  JournalJob j = job;
  j.state = JobState::kPending;
  const std::vector<char> rec = make_submit_record(j);
  log_.append(rec.data(), rec.size(), /*sync=*/true);  // write-ahead
  jobs_[j.id] = j;
}

void JobJournal::record_state(std::uint64_t id, JobState state,
                              std::uint16_t attempts,
                              std::int32_t completed_steps,
                              const std::string& restart_file,
                              const std::string& detail,
                              std::uint64_t integrity_detections,
                              std::uint64_t integrity_rollbacks) {
  if (!log_.is_open()) throw std::runtime_error("job journal: not open");
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::runtime_error("job journal: state change for unknown job " +
                             std::to_string(id));
  }
  WireWriter w;
  w.u64(id);
  w.u8(static_cast<std::uint8_t>(state));
  w.u16(attempts);
  w.i32(completed_steps);
  w.str(restart_file);
  w.str(detail);
  w.u64(integrity_detections);
  w.u64(integrity_rollbacks);
  std::vector<char> frame;
  comm::append_frame(frame, kRecState, w.bytes().data(), w.bytes().size());
  log_.append(frame.data(), frame.size(), /*sync=*/true);  // write-ahead
  it->second.state = state;
  it->second.attempts = attempts;
  it->second.completed_steps = completed_steps;
  it->second.restart_file = restart_file;
  it->second.detail = detail;
  it->second.integrity_detections = integrity_detections;
  it->second.integrity_rollbacks = integrity_rollbacks;
}

}  // namespace lmp::serve
