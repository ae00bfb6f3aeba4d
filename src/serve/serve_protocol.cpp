#include "serve/serve_protocol.h"

#include "util/table_printer.h"

namespace lmp::serve {

using comm::WireReader;
using comm::WireWriter;

namespace {

/// Call `f(name, value)` for every ServeStats field, in declaration
/// order: the one list format_server_table walks, so the table cannot
/// drop a field.
template <class F>
void for_each_field(const ServeStats& s, F&& f) {
  f("submitted", s.submitted);
  f("admitted", s.admitted);
  f("rejected_queue_full", s.rejected_queue_full);
  f("rejected_quota", s.rejected_quota);
  f("rejected_bad_script", s.rejected_bad_script);
  f("rejected_shutdown", s.rejected_shutdown);
  f("duplicate_submits", s.duplicate_submits);
  f("retries", s.retries);
  f("deadline_missed", s.deadline_missed);
  f("completed", s.completed);
  f("failed", s.failed);
  f("cancelled", s.cancelled);
  f("recovered", s.recovered);
  f("journal_torn_bytes", s.journal_torn_bytes);
  f("integrity_checks", s.integrity_checks);
  f("integrity_detections", s.integrity_detections);
  f("integrity_rollbacks", s.integrity_rollbacks);
  f("mem_flips_injected", s.mem_flips_injected);
  f("queue_depth", s.queue_depth);
  f("queue_depth_peak", s.queue_depth_peak);
  f("running", s.running);
  f("slo_breaches", s.slo_breaches);
  f("heap_live_bytes", s.heap_live_bytes);
  f("heap_high_water_bytes", s.heap_high_water_bytes);
  f("rss_bytes", s.rss_bytes);
  f("total_allocs", s.total_allocs);
}

// One helper per direction so every encoder stays a flat field list and
// the frame append (type + CRC) lives in one place.
void finish(std::vector<char>& out, MsgType type, const WireWriter& w) {
  comm::append_frame(out, static_cast<std::uint16_t>(type),
                     w.bytes().data(), w.bytes().size());
}

}  // namespace

JobState to_job_state(std::uint8_t v) {
  if (v >= static_cast<std::uint8_t>(JobState::kCount)) {
    throw comm::DecodeError("serve: job state out of range: " +
                            std::to_string(v));
  }
  return static_cast<JobState>(v);
}

RejectReason to_reject_reason(std::uint8_t v) {
  if (v >= static_cast<std::uint8_t>(RejectReason::kCount)) {
    throw comm::DecodeError("serve: reject reason out of range: " +
                            std::to_string(v));
  }
  return static_cast<RejectReason>(v);
}

void encode_submit(std::vector<char>& out, const SubmitRequest& m) {
  WireWriter w;
  w.str(m.tenant);
  w.str(m.name);
  w.str(m.script);
  w.u32(m.deadline_ms);
  w.u16(m.max_attempts);
  finish(out, MsgType::kSubmit, w);
}

SubmitRequest decode_submit(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve submit request");
  SubmitRequest m;
  m.tenant = r.str();
  m.name = r.str();
  m.script = r.str();
  m.deadline_ms = r.u32();
  m.max_attempts = r.u16();
  r.expect_done();
  return m;
}

void encode_submit_reply(std::vector<char>& out, const SubmitReply& m) {
  WireWriter w;
  w.u8(m.accepted ? 1 : 0);
  w.u8(m.already_known ? 1 : 0);
  w.u64(m.job_id);
  w.u8(static_cast<std::uint8_t>(m.state));
  w.u8(static_cast<std::uint8_t>(m.reject));
  w.str(m.detail);
  finish(out, MsgType::kSubmitReply, w);
}

SubmitReply decode_submit_reply(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve submit reply");
  SubmitReply m;
  m.accepted = r.u8() != 0;
  m.already_known = r.u8() != 0;
  m.job_id = r.u64();
  m.state = to_job_state(r.u8());
  m.reject = to_reject_reason(r.u8());
  m.detail = r.str();
  r.expect_done();
  return m;
}

void encode_status(std::vector<char>& out, const StatusRequest& m) {
  WireWriter w;
  w.u64(m.job_id);
  finish(out, MsgType::kStatus, w);
}

StatusRequest decode_status(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve status request");
  StatusRequest m;
  m.job_id = r.u64();
  r.expect_done();
  return m;
}

void encode_status_reply(std::vector<char>& out, const JobStatus& m) {
  WireWriter w;
  w.u64(m.job_id);
  w.str(m.tenant);
  w.str(m.name);
  w.u8(static_cast<std::uint8_t>(m.state));
  w.u16(m.attempts);
  w.i32(m.total_steps);
  w.i32(m.completed_steps);
  w.u32(m.chunks_available);
  w.str(m.detail);
  finish(out, MsgType::kStatusReply, w);
}

JobStatus decode_status_reply(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve status reply");
  JobStatus m;
  m.job_id = r.u64();
  m.tenant = r.str();
  m.name = r.str();
  m.state = to_job_state(r.u8());
  m.attempts = r.u16();
  m.total_steps = r.i32();
  m.completed_steps = r.i32();
  m.chunks_available = r.u32();
  m.detail = r.str();
  r.expect_done();
  return m;
}

void encode_fetch(std::vector<char>& out, const FetchRequest& m) {
  WireWriter w;
  w.u64(m.job_id);
  w.u32(m.from_chunk);
  w.u32(m.max_chunks);
  finish(out, MsgType::kFetchChunks, w);
}

FetchRequest decode_fetch(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve fetch request");
  FetchRequest m;
  m.job_id = r.u64();
  m.from_chunk = r.u32();
  m.max_chunks = r.u32();
  r.expect_done();
  return m;
}

void encode_chunks_reply(std::vector<char>& out, const ChunksReply& m) {
  WireWriter w;
  w.u64(m.job_id);
  w.u32(m.from_chunk);
  w.u8(static_cast<std::uint8_t>(m.state));
  w.u8(m.terminal ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(m.chunks.size()));
  for (const std::string& c : m.chunks) w.str(c);
  finish(out, MsgType::kChunksReply, w);
}

ChunksReply decode_chunks_reply(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve chunks reply");
  ChunksReply m;
  m.job_id = r.u64();
  m.from_chunk = r.u32();
  m.state = to_job_state(r.u8());
  m.terminal = r.u8() != 0;
  const std::uint32_t n = r.u32();
  // Every chunk costs at least its 4-byte length prefix.
  m.chunks.reserve(r.count(n, 4));
  for (std::uint32_t i = 0; i < n; ++i) m.chunks.push_back(r.str());
  r.expect_done();
  return m;
}

void encode_cancel(std::vector<char>& out, const CancelRequest& m) {
  WireWriter w;
  w.u64(m.job_id);
  finish(out, MsgType::kCancel, w);
}

CancelRequest decode_cancel(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve cancel request");
  CancelRequest m;
  m.job_id = r.u64();
  r.expect_done();
  return m;
}

void encode_cancel_reply(std::vector<char>& out, const CancelReply& m) {
  WireWriter w;
  w.u64(m.job_id);
  w.u8(m.found ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(m.state));
  finish(out, MsgType::kCancelReply, w);
}

CancelReply decode_cancel_reply(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve cancel reply");
  CancelReply m;
  m.job_id = r.u64();
  m.found = r.u8() != 0;
  m.state = to_job_state(r.u8());
  r.expect_done();
  return m;
}

void encode_stats_json(std::vector<char>& out) {
  WireWriter w;
  finish(out, MsgType::kStatsJson, w);
}

void encode_stats_json_reply(std::vector<char>& out, const std::string& json) {
  WireWriter w;
  w.str(json);
  finish(out, MsgType::kStatsJsonReply, w);
}

std::string decode_stats_json_reply(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve stats-json reply");
  std::string json = r.str();
  r.expect_done();
  return json;
}

void encode_watch(std::vector<char>& out, const WatchRequest& m) {
  WireWriter w;
  w.u32(m.interval_ms);
  w.u32(m.max_frames);
  finish(out, MsgType::kWatch, w);
}

WatchRequest decode_watch(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve watch request");
  WatchRequest m;
  m.interval_ms = r.u32();
  m.max_frames = r.u32();
  r.expect_done();
  return m;
}

void encode_error(std::vector<char>& out, const ErrorReply& m) {
  WireWriter w;
  w.str(m.detail);
  finish(out, MsgType::kError, w);
}

ErrorReply decode_error(const char* payload, std::size_t len) {
  WireReader r(payload, len, "serve error reply");
  ErrorReply m;
  m.detail = r.str();
  r.expect_done();
  return m;
}

std::string format_server_table(const ServeStats& s) {
  util::TablePrinter t({"server", "count"});
  for_each_field(s, [&t](const char* name, auto v) {
    t.add_row({name, std::to_string(v)});
  });
  return t.to_string();
}

}  // namespace lmp::serve
