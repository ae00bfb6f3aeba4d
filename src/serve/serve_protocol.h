#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/msg_codec.h"

namespace lmp::serve {

/// A request/response payload that does not decode (truncated field,
/// trailing junk, out-of-range enum). The endpoint converts it into a
/// kError reply — a malformed client frame must never take the server
/// down.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// End-of-run summary of a job-server session: the admission-control and
/// retry/deadline counters the serving layer accumulates, plus queue
/// gauges. All zeros for an idle server. Rendered by
/// format_server_table in the same style as the health table, so
/// `lmp_serve` output matches the rest of the tooling.
struct ServeStats {
  std::uint64_t submitted = 0;          ///< submissions received (any outcome)
  std::uint64_t admitted = 0;           ///< entered the run queue
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_quota = 0;     ///< per-tenant queued/running quota
  std::uint64_t rejected_bad_script = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t duplicate_submits = 0;  ///< idempotent resubmits answered
  std::uint64_t retries = 0;            ///< attempts re-run after a failure
  std::uint64_t deadline_missed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t recovered = 0;          ///< jobs requeued from the journal
  std::uint64_t journal_torn_bytes = 0; ///< tail truncated during recovery
  // Silent-corruption guards, summed over every slice of every job.
  std::uint64_t integrity_checks = 0;
  std::uint64_t integrity_detections = 0;
  std::uint64_t integrity_rollbacks = 0;
  std::uint64_t mem_flips_injected = 0;
  std::int64_t queue_depth = 0;
  std::int64_t queue_depth_peak = 0;
  std::int64_t running = 0;
  /// Tenant SLO windows that crossed into breach (enter-edges, from the
  /// telemetry plane's rolling-window evaluation).
  std::uint64_t slo_breaches = 0;
  // Memory footprint of the serving process (alloc tracker + /proc RSS;
  // heap numbers are zero when LMP_ALLOC_TRACE is compiled out). What
  // tenant billing records cite alongside step counts.
  std::int64_t heap_live_bytes = 0;
  std::int64_t heap_high_water_bytes = 0;
  std::int64_t rss_bytes = 0;
  std::uint64_t total_allocs = 0;

  std::uint64_t rejected_total() const {
    return rejected_queue_full + rejected_quota + rejected_bad_script +
           rejected_shutdown;
  }
};

/// Render the server section of the end-of-run tables (jobs admitted /
/// rejected / retried / deadline-missed, queue gauges), matching the
/// established fixed-width layout.
std::string format_server_table(const ServeStats& s);

// --- wire primitives ----------------------------------------------------

/// Append-only little binary writer (host-endian, like the checkpoint
/// format): the payload side of one frame.
class WireWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  const std::vector<char>& bytes() const { return buf_; }

 private:
  void raw(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }
  std::vector<char> buf_;
};

/// Bounds-checked reader over one frame payload. Throws ProtocolError
/// (never reads past the end) on truncation; expect_done() rejects
/// trailing junk.
class WireReader {
 public:
  WireReader(const char* data, std::size_t len, std::string what)
      : p_(data), end_(data + len), what_(std::move(what)) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  double f64() { return get<double>(); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(p_, p_ + n);
    p_ += n;
    return s;
  }
  void expect_done() const {
    if (p_ != end_) {
      throw ProtocolError("serve: trailing bytes in " + what_);
    }
  }

 private:
  template <class T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }
  void need(std::uint64_t n) const {
    if (n > static_cast<std::uint64_t>(end_ - p_)) {
      throw ProtocolError("serve: truncated " + what_);
    }
  }
  const char* p_;
  const char* end_;
  std::string what_;
};

// --- job model ----------------------------------------------------------

/// Job state machine:
///   pending -> admitted -> running -> {done, failed, retrying, cancelled}
///   retrying -> pending (requeued after backoff)
/// plus the two edges that never make it into the job table:
///   submit -> rejected   (overload/quota — counted and answered, not stored)
///   pending -> cancelled (cancel before admission)
/// Deadline misses are terminal kFailed with RejectReason-free detail
/// "deadline"; the serve.deadline_missed counter tells them apart.
enum class JobState : std::uint8_t {
  kPending = 0,
  kAdmitted,
  kRunning,
  kRetrying,
  kDone,
  kFailed,
  kCancelled,
  kRejected,  ///< wire-only: the submission never became a job
  kCount
};

inline const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kPending: return "pending";
    case JobState::kAdmitted: return "admitted";
    case JobState::kRunning: return "running";
    case JobState::kRetrying: return "retrying";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kRejected: return "rejected";
    default: return "?";
  }
}

inline bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled || s == JobState::kRejected;
}

/// Why a submission was refused at the door. Structured — the client can
/// tell backpressure (retry later) from quota (stop submitting) from a
/// bad request (fix the script).
enum class RejectReason : std::uint8_t {
  kNone = 0,
  kQueueFull,           ///< bounded admission queue at capacity
  kTenantQueuedQuota,   ///< tenant's max_queued reached
  kTenantRunningQuota,  ///< tenant's max_running reached (and queue refusal)
  kBadScript,           ///< input script does not parse
  kShuttingDown,        ///< server draining; nothing new admitted
  kCount
};

inline const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kTenantQueuedQuota: return "tenant-queued-quota";
    case RejectReason::kTenantRunningQuota: return "tenant-running-quota";
    case RejectReason::kBadScript: return "bad-script";
    case RejectReason::kShuttingDown: return "shutting-down";
    default: return "?";
  }
}

// --- messages -----------------------------------------------------------

/// Frame types of the serving protocol (requests odd concerns, replies
/// paired). The journal uses its own type range (see job_journal.cpp) so
/// a journal file fed to the endpoint is rejected as unknown, not
/// misparsed.
enum class MsgType : std::uint16_t {
  kSubmit = 0x0101,
  kSubmitReply = 0x0102,
  kStatus = 0x0103,
  kStatusReply = 0x0104,
  kFetchChunks = 0x0105,
  kChunksReply = 0x0106,
  kCancel = 0x0107,
  kCancelReply = 0x0108,
  kStatsJson = 0x010B,       ///< one live-telemetry snapshot (JSON)
  kStatsJsonReply = 0x010C,
  kWatch = 0x010D,           ///< stream snapshots every interval_ms
  kError = 0x01FF,
};

struct SubmitRequest {
  std::string tenant;
  std::string name;    ///< unique per tenant; resubmission is idempotent
  std::string script;  ///< LAMMPS-style input script text
  std::uint32_t deadline_ms = 0;   ///< 0 = server default
  std::uint16_t max_attempts = 0;  ///< 0 = server default
};

struct SubmitReply {
  bool accepted = false;
  bool already_known = false;  ///< idempotent resubmit of an existing job
  std::uint64_t job_id = 0;
  JobState state = JobState::kRejected;
  RejectReason reject = RejectReason::kNone;
  std::string detail;
};

struct StatusRequest {
  std::uint64_t job_id = 0;
};

struct JobStatus {
  std::uint64_t job_id = 0;
  std::string tenant;
  std::string name;
  JobState state = JobState::kPending;
  std::uint16_t attempts = 0;
  std::int32_t total_steps = 0;
  std::int32_t completed_steps = 0;
  std::uint32_t chunks_available = 0;
  std::string detail;
};

struct FetchRequest {
  std::uint64_t job_id = 0;
  std::uint32_t from_chunk = 0;
  std::uint32_t max_chunks = 16;
};

struct ChunksReply {
  std::uint64_t job_id = 0;
  std::uint32_t from_chunk = 0;
  std::vector<std::string> chunks;
  JobState state = JobState::kPending;
  bool terminal = false;
};

struct CancelRequest {
  std::uint64_t job_id = 0;
};

struct CancelReply {
  std::uint64_t job_id = 0;
  bool found = false;
  JobState state = JobState::kPending;  ///< state after the cancel attempt
};

/// Start a snapshot stream: the endpoint sends one kStatsJsonReply every
/// `interval_ms` until the client closes (or `max_frames`, when nonzero,
/// have been sent — scripting and tests use it to bound the stream).
/// Against the raw byte endpoint (no connection to stream over) a watch
/// degrades to a single snapshot reply.
struct WatchRequest {
  std::uint32_t interval_ms = 500;
  std::uint32_t max_frames = 0;  ///< 0 = until the client closes
};

struct ErrorReply {
  std::string detail;
};

// Each encode_* appends one whole frame (header + payload) to `out`;
// each decode_* parses one frame payload and throws ProtocolError on
// malformed bytes.

void encode_submit(std::vector<char>& out, const SubmitRequest& m);
SubmitRequest decode_submit(const char* payload, std::size_t len);

void encode_submit_reply(std::vector<char>& out, const SubmitReply& m);
SubmitReply decode_submit_reply(const char* payload, std::size_t len);

void encode_status(std::vector<char>& out, const StatusRequest& m);
StatusRequest decode_status(const char* payload, std::size_t len);

void encode_status_reply(std::vector<char>& out, const JobStatus& m);
JobStatus decode_status_reply(const char* payload, std::size_t len);

void encode_fetch(std::vector<char>& out, const FetchRequest& m);
FetchRequest decode_fetch(const char* payload, std::size_t len);

void encode_chunks_reply(std::vector<char>& out, const ChunksReply& m);
ChunksReply decode_chunks_reply(const char* payload, std::size_t len);

void encode_cancel(std::vector<char>& out, const CancelRequest& m);
CancelRequest decode_cancel(const char* payload, std::size_t len);

void encode_cancel_reply(std::vector<char>& out, const CancelReply& m);
CancelReply decode_cancel_reply(const char* payload, std::size_t len);

void encode_stats_json(std::vector<char>& out);
void encode_stats_json_reply(std::vector<char>& out, const std::string& json);
std::string decode_stats_json_reply(const char* payload, std::size_t len);

void encode_watch(std::vector<char>& out, const WatchRequest& m);
WatchRequest decode_watch(const char* payload, std::size_t len);

void encode_error(std::vector<char>& out, const ErrorReply& m);
ErrorReply decode_error(const char* payload, std::size_t len);

/// Range-checked enum casts used by every decoder (and the journal).
JobState to_job_state(std::uint8_t v);
RejectReason to_reject_reason(std::uint8_t v);

}  // namespace lmp::serve
