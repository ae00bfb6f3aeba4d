#include "serve/job_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/input_script.h"
#include "sim/simulation.h"

namespace lmp::serve {
namespace {

std::string tmp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// An empty work directory of its own: job files are named by job id, so
/// servers of tests that ctest runs concurrently must not share one.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name + "/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Small LJ melt (108 atoms), `ref` comm so trajectories are bitwise
/// deterministic. `extra` lines go before `run`.
std::string melt_script(int run_steps, int thermo_every = 5,
                        const std::string& extra = "", int cells = 3) {
  const std::string c = std::to_string(cells);
  return "units lj\n"
         "lattice fcc 0.8442\n"
         "region box block 0 " + c + " 0 " + c + " 0 " + c + "\n"
         "create_box 1 box\n"
         "create_atoms 1 box\n"
         "mass 1 1.0\n"
         "velocity all create 1.44 87287\n"
         "pair_style lj/cut 2.5\n"
         "pair_coeff 1 1 1.0 1.0\n"
         "neighbor 0.3 bin\n"
         "neigh_modify every 5 check no\n"
         "fix 1 all nve\n"
         "timestep 0.005\n"
         "thermo " + std::to_string(thermo_every) + "\n"
         "comm_variant ref\n" +
         extra +
         "run " + std::to_string(run_steps) + "\n";
}

/// Same line format the server streams (job_server.cpp); the reference
/// series must be rendered identically for a bitwise string compare.
std::string thermo_text(const std::vector<sim::ThermoSample>& thermo) {
  std::string out;
  char line[256];
  for (const sim::ThermoSample& s : thermo) {
    std::snprintf(line, sizeof line, "%d %.17g %.17g %.17g %.17g\n", s.step,
                  s.state.temperature, s.state.pressure, s.state.kinetic,
                  s.state.potential);
    out += line;
  }
  return out;
}

/// Uninterrupted reference run with the server's effective checkpoint
/// cadence (checkpoint steps force a neighbor rebuild, so the reference
/// must share the schedule for a bitwise comparison to be meaningful).
std::string reference_thermo(const std::string& script, int checkpoint_every) {
  sim::ParsedScript parsed = sim::parse_input_script(script);
  sim::SimOptions opts = parsed.options;
  opts.checkpoint_every = checkpoint_every;
  const sim::JobResult r = sim::run_simulation(opts, parsed.run_steps);
  return thermo_text(r.thermo);
}

std::string all_chunks(const JobServer& server, std::uint64_t job_id) {
  FetchRequest req;
  req.job_id = job_id;
  req.max_chunks = 1u << 20;
  std::string out;
  for (const std::string& c : server.fetch(req).chunks) out += c;
  return out;
}

ServerConfig base_config(const std::string& tag) {
  ServerConfig cfg;
  cfg.journal_path = tmp_path("srv_" + tag + ".journal");
  cfg.work_dir = fresh_dir("srv_" + tag);
  cfg.workers = 1;
  cfg.slice_steps = 10;
  cfg.retry_backoff_ms = 1;
  cfg.retry_backoff_max_ms = 5;
  return cfg;
}

SubmitRequest make_submit(const std::string& tenant, const std::string& name,
                          const std::string& script) {
  SubmitRequest req;
  req.tenant = tenant;
  req.name = name;
  req.script = script;
  return req;
}

// --- protocol -----------------------------------------------------------

TEST(ServeProtocol, SubmitRoundTrip) {
  SubmitRequest in;
  in.tenant = "acme";
  in.name = "melt-1";
  in.script = melt_script(10);
  in.deadline_ms = 1234;
  in.max_attempts = 7;
  std::vector<char> buf;
  encode_submit(buf, in);
  const comm::FrameView f = comm::decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(static_cast<MsgType>(f.type), MsgType::kSubmit);
  const SubmitRequest out = decode_submit(f.payload, f.payload_len);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.script, in.script);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.max_attempts, in.max_attempts);
}

TEST(ServeProtocol, RepliesRoundTrip) {
  std::vector<char> buf;
  SubmitReply sr;
  sr.accepted = true;
  sr.already_known = true;
  sr.job_id = 42;
  sr.state = JobState::kRetrying;
  sr.reject = RejectReason::kNone;
  sr.detail = "d";
  encode_submit_reply(buf, sr);

  JobStatus js;
  js.job_id = 42;
  js.tenant = "acme";
  js.name = "melt";
  js.state = JobState::kRunning;
  js.attempts = 2;
  js.total_steps = 60;
  js.completed_steps = 30;
  js.chunks_available = 3;
  js.detail = "x";
  encode_status_reply(buf, js);

  ChunksReply cr;
  cr.job_id = 42;
  cr.from_chunk = 1;
  cr.chunks = {"a\n", "bb\n"};
  cr.state = JobState::kDone;
  cr.terminal = true;
  encode_chunks_reply(buf, cr);

  std::size_t off = 0;
  comm::FrameView f = comm::decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(f.ok());
  const SubmitReply sr2 = decode_submit_reply(f.payload, f.payload_len);
  EXPECT_TRUE(sr2.accepted);
  EXPECT_TRUE(sr2.already_known);
  EXPECT_EQ(sr2.job_id, 42u);
  EXPECT_EQ(sr2.state, JobState::kRetrying);
  off += f.consumed;

  f = comm::decode_frame(buf.data() + off, buf.size() - off);
  ASSERT_TRUE(f.ok());
  const JobStatus js2 = decode_status_reply(f.payload, f.payload_len);
  EXPECT_EQ(js2.tenant, "acme");
  EXPECT_EQ(js2.completed_steps, 30);
  EXPECT_EQ(js2.chunks_available, 3u);
  off += f.consumed;

  f = comm::decode_frame(buf.data() + off, buf.size() - off);
  ASSERT_TRUE(f.ok());
  const ChunksReply cr2 = decode_chunks_reply(f.payload, f.payload_len);
  ASSERT_EQ(cr2.chunks.size(), 2u);
  EXPECT_EQ(cr2.chunks[1], "bb\n");
  EXPECT_TRUE(cr2.terminal);
  EXPECT_EQ(off + f.consumed, buf.size());
}

TEST(ServeProtocol, ServerTableListsEveryField) {
  // Every field distinct and nonzero, so a field the table drops or
  // swaps cannot show its value by accident. Adding a ServeStats field
  // breaks the size check until it is listed here too.
  static_assert(sizeof(ServeStats) == 26 * sizeof(std::uint64_t));
  ServeStats st;
  const std::vector<std::pair<std::string, std::int64_t>> want{
      {"submitted", st.submitted = 1},
      {"admitted", st.admitted = 2},
      {"rejected_queue_full", st.rejected_queue_full = 3},
      {"rejected_quota", st.rejected_quota = 4},
      {"rejected_bad_script", st.rejected_bad_script = 5},
      {"rejected_shutdown", st.rejected_shutdown = 6},
      {"duplicate_submits", st.duplicate_submits = 7},
      {"retries", st.retries = 8},
      {"deadline_missed", st.deadline_missed = 9},
      {"completed", st.completed = 10},
      {"failed", st.failed = 11},
      {"cancelled", st.cancelled = 12},
      {"recovered", st.recovered = 13},
      {"journal_torn_bytes", st.journal_torn_bytes = 14},
      {"integrity_checks", st.integrity_checks = 15},
      {"integrity_detections", st.integrity_detections = 16},
      {"integrity_rollbacks", st.integrity_rollbacks = 17},
      {"mem_flips_injected", st.mem_flips_injected = 18},
      {"queue_depth", st.queue_depth = 19},
      {"queue_depth_peak", st.queue_depth_peak = 20},
      {"running", st.running = 21},
      {"slo_breaches", st.slo_breaches = 22},
      {"heap_live_bytes", st.heap_live_bytes = 23},
      {"heap_high_water_bytes", st.heap_high_water_bytes = 24},
      {"rss_bytes", st.rss_bytes = 25},
      {"total_allocs", st.total_allocs = 26},
  };

  // Data rows are "| name | value |", below a header row and a dashed
  // rule.
  std::map<std::string, std::vector<std::string>> rows;
  std::istringstream table(format_server_table(st));
  for (std::string line; std::getline(table, line);) {
    std::vector<std::string> cells;
    std::istringstream cols(line);
    for (std::string cell; std::getline(cols, cell, '|');) {
      std::istringstream words(cell);
      std::string word;
      if (words >> word) cells.push_back(word);
    }
    if (cells.size() == 2 && cells[0] != "server" && cells[0][0] != '-') {
      rows[cells[0]].push_back(cells[1]);
    }
  }
  EXPECT_EQ(rows.size(), want.size());
  for (const auto& [name, value] : want) {
    EXPECT_EQ(rows[name], std::vector<std::string>{std::to_string(value)})
        << name;
  }
}

TEST(ServeProtocol, ForgedChunkCountRejectedWithoutHugeAllocation) {
  // A 22-byte payload declaring 2^32-1 chunks: the decoder must fail
  // with the structured ProtocolError (truncated first string), not
  // attempt a multi-GB vector reserve for the forged count.
  WireWriter w;
  w.u64(7);
  w.u32(0);
  w.u8(static_cast<std::uint8_t>(JobState::kDone));
  w.u8(1);
  w.u32(0xFFFFFFFFu);
  const std::vector<char>& b = w.bytes();
  EXPECT_THROW(decode_chunks_reply(b.data(), b.size()), ProtocolError);
}

TEST(ServeProtocol, TruncatedPayloadThrowsStructured) {
  std::vector<char> buf;
  encode_submit(buf, make_submit("t", "n", "s"));
  const comm::FrameView f = comm::decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(f.ok());
  for (std::size_t cut = 0; cut < f.payload_len; ++cut) {
    EXPECT_THROW(decode_submit(f.payload, cut), ProtocolError) << cut;
  }
  EXPECT_THROW(to_job_state(250), ProtocolError);
  EXPECT_THROW(to_reject_reason(250), ProtocolError);
}

// --- server behaviour ---------------------------------------------------

TEST(JobServer, RunsJobStreamsBitwiseIdenticalThermoAndWritesReport) {
  ServerConfig cfg = base_config("basic");
  cfg.write_dumps = true;
  JobServer server(cfg);
  server.start();

  const std::string script = melt_script(20);
  const SubmitReply r = server.submit(make_submit("acme", "melt", script));
  ASSERT_TRUE(r.accepted);
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const std::optional<JobStatus> s = server.status(r.job_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_EQ(s->attempts, 1);
  EXPECT_EQ(s->completed_steps, 20);
  EXPECT_EQ(s->total_steps, 20);
  EXPECT_GE(s->chunks_available, 2u);  // 20 steps / 10-step slices

  // The streamed thermo is bitwise-identical to an uninterrupted run
  // with the same checkpoint cadence.
  EXPECT_EQ(all_chunks(server, r.job_id), reference_thermo(script, 10));

  const std::string base =
      cfg.work_dir + "job-" + std::to_string(r.job_id);
  EXPECT_TRUE(std::ifstream(base + ".report.json").good());
  EXPECT_TRUE(std::ifstream(base + ".dump").good());

  const ServeStats st = server.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.retries, 0u);
  const std::string table = format_server_table(st);
  EXPECT_NE(table.find("completed"), std::string::npos);
  EXPECT_NE(table.find("server"), std::string::npos);
  server.stop(StopMode::kDrain);
}

TEST(JobServer, HealsInjectedMemoryFlipAndSurfacesIntegrityCounters) {
  ServerConfig cfg = base_config("integrity");
  cfg.integrity_cadence = 5;
  // One transient velocity flip in the job's second slice. The guards
  // must detect it, roll back within the slice, and finish the job —
  // the tenant sees a completed run plus an honest integrity history.
  tofu::MemFault flip;
  flip.step = 15;
  flip.rank = 0;
  flip.target = static_cast<int>(tofu::MemTarget::kVel);
  flip.word = 7;
  flip.bit = 62;
  cfg.fault_plan.mem_faults.push_back(flip);
  JobServer server(cfg);
  server.start();

  const std::string script = melt_script(20);
  const SubmitReply r = server.submit(make_submit("acme", "flipped", script));
  ASSERT_TRUE(r.accepted);
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const std::optional<JobStatus> s = server.status(r.job_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_EQ(s->completed_steps, 20);

  // The healed stream still matches the fault-free reference bitwise.
  EXPECT_EQ(all_chunks(server, r.job_id), reference_thermo(script, 10));

  const ServeStats st = server.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_GT(st.integrity_checks, 0u);
  EXPECT_EQ(st.integrity_detections, 1u);
  EXPECT_EQ(st.integrity_rollbacks, 1u);
  EXPECT_EQ(st.mem_flips_injected, 1u);
  const std::string table = format_server_table(st);
  EXPECT_NE(table.find("integrity_detections"), std::string::npos);

  // The whole-job totals land in the report's integrity section.
  std::ifstream rep(cfg.work_dir + "job-" + std::to_string(r.job_id) +
                    ".report.json");
  ASSERT_TRUE(rep.good());
  std::stringstream ss;
  ss << rep.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"integrity\""), std::string::npos);
  EXPECT_NE(json.find("\"detections\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rollbacks\":1"), std::string::npos);
  EXPECT_NE(json.find("\"mem_flips_injected\":1"), std::string::npos);
  server.stop(StopMode::kDrain);
}

TEST(JobServer, OverloadYieldsStructuredRejectionsInBoundedTime) {
  ServerConfig cfg = base_config("overload");
  cfg.workers = 0;  // admission-only: the queue cannot drain under us
  cfg.queue_capacity = 3;
  cfg.default_quota = {2, 1};
  cfg.tenant_quotas["banned"] = {4, 0};
  JobServer server(cfg);
  server.start();

  const std::string script = melt_script(10);
  const auto t0 = std::chrono::steady_clock::now();

  EXPECT_TRUE(server.submit(make_submit("a", "j1", script)).accepted);
  EXPECT_TRUE(server.submit(make_submit("a", "j2", script)).accepted);
  const SubmitReply quota = server.submit(make_submit("a", "j3", script));
  EXPECT_FALSE(quota.accepted);
  EXPECT_EQ(quota.reject, RejectReason::kTenantQueuedQuota);
  EXPECT_EQ(quota.state, JobState::kRejected);

  EXPECT_TRUE(server.submit(make_submit("b", "j1", script)).accepted);
  const SubmitReply full = server.submit(make_submit("c", "j1", script));
  EXPECT_FALSE(full.accepted);
  EXPECT_EQ(full.reject, RejectReason::kQueueFull);

  const SubmitReply banned = server.submit(make_submit("banned", "j1", script));
  EXPECT_FALSE(banned.accepted);
  EXPECT_EQ(banned.reject, RejectReason::kTenantRunningQuota);

  const SubmitReply bad = server.submit(make_submit("a", "oops", "nonsense\n"));
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.reject, RejectReason::kBadScript);
  EXPECT_FALSE(bad.detail.empty());

  const SubmitReply dup = server.submit(make_submit("a", "j1", script));
  EXPECT_TRUE(dup.accepted);
  EXPECT_TRUE(dup.already_known);

  // Overload storm: every rejection is answered, none stored, and the
  // whole barrage completes in bounded time.
  for (int i = 0; i < 500; ++i) {
    const SubmitReply r = server.submit(make_submit("c", "spam", script));
    EXPECT_FALSE(r.accepted && !r.already_known);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);

  const ServeStats st = server.stats();
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(server.jobs().size(), 3u);  // rejections counted, not stored
  EXPECT_EQ(st.rejected_total(),
            st.rejected_queue_full + st.rejected_quota +
                st.rejected_bad_script + st.rejected_shutdown);
  EXPECT_GE(st.rejected_queue_full, 1u);
  EXPECT_GE(st.rejected_quota, 2u);
  EXPECT_EQ(st.rejected_bad_script, 1u);
  EXPECT_EQ(st.queue_depth, 3);
  EXPECT_EQ(st.queue_depth_peak, 3);

  server.stop(StopMode::kDrain);
  const SubmitReply down = server.submit(make_submit("a", "late", script));
  EXPECT_FALSE(down.accepted);
  EXPECT_EQ(down.reject, RejectReason::kShuttingDown);
}

TEST(JobServer, TinyDeadlineMissesWithStructuredFailure) {
  ServerConfig cfg = base_config("deadline");
  cfg.before_attempt_hook = [](std::uint64_t, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  JobServer server(cfg);
  server.start();

  SubmitRequest req = make_submit("acme", "rush", melt_script(20));
  req.deadline_ms = 1;
  const SubmitReply r = server.submit(req);
  ASSERT_TRUE(r.accepted);
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const std::optional<JobStatus> s = server.status(r.job_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kFailed);
  EXPECT_NE(s->detail.find("deadline"), std::string::npos) << s->detail;
  EXPECT_EQ(server.stats().deadline_missed, 1u);
  EXPECT_EQ(server.stats().retries, 0u);  // deadline misses never retry
  server.stop(StopMode::kDrain);
}

TEST(JobServer, TransientFaultRetriesThenSucceeds) {
  ServerConfig cfg = base_config("retry");
  cfg.before_attempt_hook = [](std::uint64_t, int attempt) {
    if (attempt == 1) throw std::runtime_error("injected transient fault");
  };
  JobServer server(cfg);
  server.start();

  const std::string script = melt_script(20);
  const SubmitReply r = server.submit(make_submit("acme", "flaky", script));
  ASSERT_TRUE(r.accepted);
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const std::optional<JobStatus> s = server.status(r.job_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_EQ(s->attempts, 2);
  EXPECT_EQ(server.stats().retries, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
  // The retried run still streams the complete, bitwise-correct series.
  EXPECT_EQ(all_chunks(server, r.job_id), reference_thermo(script, 10));
  server.stop(StopMode::kDrain);
}

TEST(JobServer, AttemptBudgetExhaustionFailsTerminally) {
  ServerConfig cfg = base_config("budget");
  cfg.before_attempt_hook = [](std::uint64_t, int) {
    throw std::runtime_error("persistent fault");
  };
  JobServer server(cfg);
  server.start();

  SubmitRequest req = make_submit("acme", "doomed", melt_script(10));
  req.max_attempts = 2;
  const SubmitReply r = server.submit(req);
  ASSERT_TRUE(r.accepted);
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const std::optional<JobStatus> s = server.status(r.job_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kFailed);
  EXPECT_EQ(s->attempts, 2);
  EXPECT_NE(s->detail.find("persistent fault"), std::string::npos);
  EXPECT_EQ(server.stats().retries, 1u);
  EXPECT_EQ(server.stats().failed, 1u);
  server.stop(StopMode::kDrain);
}

TEST(JobServer, CancelPendingAndRunningJobs) {
  ServerConfig cfg = base_config("cancel");
  cfg.workers = 0;
  JobServer server(cfg);
  server.start();
  const SubmitReply r = server.submit(make_submit("acme", "q", melt_script(10)));
  ASSERT_TRUE(r.accepted);
  const CancelReply c = server.cancel(r.job_id);
  EXPECT_TRUE(c.found);
  EXPECT_EQ(c.state, JobState::kCancelled);
  EXPECT_FALSE(server.cancel(999).found);
  EXPECT_EQ(server.stats().cancelled, 1u);
  server.stop(StopMode::kDrain);

  // Cancel mid-run: the hook parks the worker long enough to land the
  // cancel while the job is running; the worker honours it at the next
  // slice boundary check.
  ServerConfig cfg2 = base_config("cancel2");
  cfg2.before_attempt_hook = [](std::uint64_t, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  JobServer server2(cfg2);
  server2.start();
  const SubmitReply r2 =
      server2.submit(make_submit("acme", "running", melt_script(40)));
  ASSERT_TRUE(r2.accepted);
  for (int i = 0; i < 1000; ++i) {
    const std::optional<JobStatus> s = server2.status(r2.job_id);
    ASSERT_TRUE(s.has_value());
    if (s->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server2.cancel(r2.job_id);
  ASSERT_TRUE(server2.wait_all_terminal(60000));
  const std::optional<JobStatus> s2 = server2.status(r2.job_id);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s2->state, JobState::kCancelled);
  server2.stop(StopMode::kDrain);
}

TEST(JobServer, HandleFramesEndpointAnswersAndSurvivesGarbage) {
  ServerConfig cfg = base_config("wire");
  JobServer server(cfg);
  server.start();

  std::vector<char> in;
  encode_submit(in, make_submit("acme", "wire", melt_script(10)));
  encode_stats_json(in);
  // Cancelling an id the server never issued answers found == false.
  CancelRequest unknown;
  unknown.job_id = 999999;
  encode_cancel(in, unknown);
  // A submit frame whose payload is garbage for the declared type.
  comm::append_frame(in, static_cast<std::uint16_t>(MsgType::kSubmit), "xx", 2);
  // An unknown frame type.
  comm::append_frame(in, 0x7777, "", 0);

  std::size_t consumed = 0;
  const std::vector<char> out =
      server.handle_frames(in.data(), in.size(), &consumed);
  EXPECT_EQ(consumed, in.size());

  std::size_t off = 0;
  comm::FrameView f = comm::decode_frame(out.data(), out.size());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(static_cast<MsgType>(f.type), MsgType::kSubmitReply);
  const SubmitReply sr = decode_submit_reply(f.payload, f.payload_len);
  EXPECT_TRUE(sr.accepted);
  off += f.consumed;

  f = comm::decode_frame(out.data() + off, out.size() - off);
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(static_cast<MsgType>(f.type), MsgType::kStatsJsonReply);
  EXPECT_NE(decode_stats_json_reply(f.payload, f.payload_len)
                .find("lmp-telemetry-snapshot"),
            std::string::npos);
  off += f.consumed;

  f = comm::decode_frame(out.data() + off, out.size() - off);
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(static_cast<MsgType>(f.type), MsgType::kCancelReply);
  const CancelReply cancel = decode_cancel_reply(f.payload, f.payload_len);
  EXPECT_EQ(cancel.job_id, 999999u);
  EXPECT_FALSE(cancel.found);
  off += f.consumed;

  f = comm::decode_frame(out.data() + off, out.size() - off);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(static_cast<MsgType>(f.type), MsgType::kError);
  off += f.consumed;

  f = comm::decode_frame(out.data() + off, out.size() - off);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(static_cast<MsgType>(f.type), MsgType::kError);
  EXPECT_EQ(off + f.consumed, out.size());

  // Pure garbage: structured error, nothing consumed past the break.
  const char junk[] = "this is not a frame";
  const std::vector<char> out2 =
      server.handle_frames(junk, sizeof junk - 1, &consumed);
  f = comm::decode_frame(out2.data(), out2.size());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(static_cast<MsgType>(f.type), MsgType::kError);

  ASSERT_TRUE(server.wait_all_terminal(60000));
  server.stop(StopMode::kDrain);
}

TEST(JobServer, HugeCadencesDegradeToOneSliceInsteadOfOverflowing) {
  // lcm(1999999999, 2000000000) overflows 32-bit; before the 64-bit
  // clamp this wedged the worker in an unbreakable quantum-search loop
  // (signed-overflow UB), so one bad-but-valid script hung the server
  // and its destructor. Now the quantum degrades to a single full-run
  // slice and the job completes normally.
  ServerConfig cfg = base_config("hugecadence");
  JobServer server(cfg);
  server.start();

  const std::string script =
      melt_script(10, 2000000000, "checkpoint 1999999999\n");
  const SubmitReply r = server.submit(make_submit("acme", "huge", script));
  ASSERT_TRUE(r.accepted) << r.detail;
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const std::optional<JobStatus> s = server.status(r.job_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone) << s->detail;
  EXPECT_EQ(s->completed_steps, 10);
  // Still bitwise-identical to the uninterrupted reference run with the
  // script's own (never-firing) checkpoint cadence.
  EXPECT_EQ(all_chunks(server, r.job_id), reference_thermo(script, 1999999999));
  server.stop(StopMode::kDrain);
}

TEST(JobServer, JournalWriteFailureDegradesServerInsteadOfTerminating) {
  // A journal append that throws on a worker thread used to escape into
  // std::terminate. It must instead flip the server into the degraded
  // non-accepting mode: the in-flight job finishes in memory, clients
  // keep their status/chunk access, new submissions get a structured
  // rejection naming the journal, and shutdown stays orderly.
  ServerConfig cfg = base_config("journalfail");
  std::atomic<bool> fail{false};
  cfg.journal_fault_hook = [&fail] {
    if (fail.load()) throw std::runtime_error("injected journal I/O failure");
  };
  // Arm the fault only once the job is running, so the failure lands on
  // the worker's progress-WAL append, not on the submit path.
  cfg.before_attempt_hook = [&fail](std::uint64_t, int) { fail.store(true); };
  JobServer server(cfg);
  server.start();

  const std::string script = melt_script(20);
  const SubmitReply r = server.submit(make_submit("acme", "degrade", script));
  ASSERT_TRUE(r.accepted) << r.detail;
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const std::optional<JobStatus> s = server.status(r.job_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone) << s->detail;
  EXPECT_EQ(all_chunks(server, r.job_id), reference_thermo(script, 10));
  EXPECT_TRUE(server.running());

  const SubmitReply after = server.submit(make_submit("acme", "late", script));
  EXPECT_FALSE(after.accepted);
  EXPECT_EQ(after.reject, RejectReason::kShuttingDown);
  EXPECT_NE(after.detail.find("journal"), std::string::npos) << after.detail;
  EXPECT_EQ(server.stats().completed, 1u);
  server.stop(StopMode::kDrain);

  // Same failure on the submit path: the write-ahead append throws, the
  // submission is rejected (never half-admitted), and the server lives.
  ServerConfig cfg2 = base_config("journalfail2");
  cfg2.journal_fault_hook = [] {
    throw std::runtime_error("injected journal I/O failure");
  };
  JobServer server2(cfg2);
  server2.start();
  const SubmitReply r2 = server2.submit(make_submit("acme", "never", script));
  EXPECT_FALSE(r2.accepted);
  EXPECT_EQ(r2.reject, RejectReason::kShuttingDown);
  EXPECT_NE(r2.detail.find("journal"), std::string::npos) << r2.detail;
  EXPECT_EQ(server2.jobs().size(), 0u);
  server2.stop(StopMode::kDrain);
}

TEST(JobServer, RecoveredFullyProgressedJobStillStreamsAndWritesReport) {
  // Crash window: the final slice's progress record landed but the
  // terminal record did not. Recovery requeues the job with
  // completed_steps == total; the next incarnation must still produce
  // the report and stream the complete thermo series before journaling
  // kDone — not short-circuit into an artifact-less terminal state.
  const std::string script = melt_script(20);
  const std::string reference = reference_thermo(script, 10);

  // Variant 1: no checkpoint survived (crash before the first cadence
  // multiple would be rare but legal) — a full deterministic re-run.
  ServerConfig cfg = base_config("tornfinal");
  {
    JobJournal j;
    j.open(cfg.journal_path);
    JournalJob jj;
    jj.id = j.next_id();
    jj.tenant = "acme";
    jj.name = "torn";
    jj.script = script;
    jj.max_attempts = 3;
    j.record_submit(jj);
    j.record_state(jj.id, JobState::kRunning, 1, 20, "", "");
    j.close();
  }
  std::uint64_t job_id = 0;
  {
    JobServer server(cfg);
    server.start();
    ASSERT_TRUE(server.wait_all_terminal(60000));
    const std::vector<JobStatus> jobs = server.jobs();
    ASSERT_EQ(jobs.size(), 1u);
    job_id = jobs[0].job_id;
    EXPECT_EQ(jobs[0].state, JobState::kDone) << jobs[0].detail;
    EXPECT_EQ(jobs[0].completed_steps, 20);
    EXPECT_EQ(all_chunks(server, job_id), reference);
    server.stop(StopMode::kDrain);
  }
  const std::string report_path =
      cfg.work_dir + "/job-" + std::to_string(job_id) + ".report.json";
  EXPECT_TRUE(std::ifstream(report_path).good());

  // Variant 2: the journaled checkpoint sits exactly at `total` (the
  // common case — the final progress record and the checkpoint land at
  // the same boundary): a zero-step resume must regenerate the report
  // from the checkpoint and stream its thermo history.
  std::remove(report_path.c_str());
  const std::string ck_at_total =
      cfg.work_dir + "/job-" + std::to_string(job_id) + ".ck.20";
  ASSERT_TRUE(std::ifstream(ck_at_total).good());
  ServerConfig cfg2 = base_config("tornfinal2");
  cfg2.work_dir = cfg.work_dir;
  {
    JobJournal j;
    j.open(cfg2.journal_path);
    JournalJob jj;
    jj.id = j.next_id();
    jj.tenant = "acme";
    jj.name = "torn-ck";
    jj.script = script;
    jj.max_attempts = 3;
    j.record_submit(jj);
    j.record_state(jj.id, JobState::kRunning, 1, 20, ck_at_total, "");
    j.close();
  }
  JobServer server(cfg2);
  server.start();
  ASSERT_TRUE(server.wait_all_terminal(60000));
  const std::vector<JobStatus> jobs = server.jobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, JobState::kDone) << jobs[0].detail;
  EXPECT_EQ(all_chunks(server, jobs[0].job_id), reference);
  EXPECT_TRUE(std::ifstream(cfg2.work_dir + "/job-" +
                            std::to_string(jobs[0].job_id) + ".report.json")
                  .good());
  server.stop(StopMode::kDrain);
}

// --- crash recovery (the acceptance bar) --------------------------------

TEST(JobServer, CrashRecoveryCompletedStaysDoneInFlightResumesBitwise) {
  ServerConfig cfg = base_config("crash");
  const std::string quick = melt_script(10);
  const std::string slow = melt_script(60);

  std::uint64_t quick_id = 0, slow_id = 0;
  std::uint16_t quick_attempts = 0;
  {
    JobServer server(cfg);
    server.start();
    const SubmitReply q = server.submit(make_submit("acme", "quick", quick));
    ASSERT_TRUE(q.accepted);
    quick_id = q.job_id;
    // Let the quick job finish before admitting the slow one, so the
    // crash interrupts only the slow job.
    for (int i = 0; i < 10000; ++i) {
      const std::optional<JobStatus> s = server.status(quick_id);
      if (s.has_value() && s->state == JobState::kDone) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.status(quick_id)->state, JobState::kDone);
    quick_attempts = server.status(quick_id)->attempts;

    const SubmitReply sl = server.submit(make_submit("acme", "slow", slow));
    ASSERT_TRUE(sl.accepted);
    slow_id = sl.job_id;
    // Wait for mid-flight progress (some slices journaled, job not done),
    // then die without journaling anything further — kill -9 semantics.
    for (int i = 0; i < 10000; ++i) {
      const std::optional<JobStatus> s = server.status(slow_id);
      ASSERT_TRUE(s.has_value());
      if (s->completed_steps >= 10 || s->state == JobState::kDone) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop(StopMode::kAbandon);
  }

  JobServer server(cfg);
  server.start();
  // Completed jobs stay completed — not re-run.
  const std::optional<JobStatus> q = server.status(quick_id);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->state, JobState::kDone);
  EXPECT_EQ(q->attempts, quick_attempts);

  // Replaying the workload is idempotent: no duplicate jobs.
  const SubmitReply rq = server.submit(make_submit("acme", "quick", quick));
  EXPECT_TRUE(rq.already_known);
  EXPECT_EQ(rq.job_id, quick_id);
  const SubmitReply rs = server.submit(make_submit("acme", "slow", slow));
  EXPECT_TRUE(rs.already_known);
  EXPECT_EQ(rs.job_id, slow_id);
  EXPECT_EQ(server.jobs().size(), 2u);

  ASSERT_TRUE(server.wait_all_terminal(120000));
  const std::optional<JobStatus> s = server.status(slow_id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_EQ(s->completed_steps, 60);

  // The recovered incarnation streams the FULL series (its first slice
  // carries the checkpointed history), bitwise-identical to a run that
  // was never interrupted.
  EXPECT_EQ(all_chunks(server, slow_id), reference_thermo(slow, 10));
  EXPECT_EQ(server.recovery().jobs_seen, 2u);
  server.stop(StopMode::kDrain);
}

// --- chaos soak (satellite) ---------------------------------------------

TEST(JobServer, ChaosSoakKeepsQueueInvariantsAcrossKillRestartCycles) {
  ServerConfig cfg = base_config("soak");
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.default_quota = {8, 2};
  // Seeded recoverable message faults on a 2-rank fabric: the comm
  // reliability protocol absorbs them inside each attempt.
  cfg.fault_plan.seed = 0xC0FFEE;
  cfg.fault_plan.drop_rate = 0.01;
  cfg.fault_plan.delay_rate = 0.02;
  cfg.fault_plan.duplicate_rate = 0.01;

  std::mt19937 rng(1234);
  struct Spec {
    SubmitRequest req;
  };
  std::vector<Spec> specs;
  const char* tenants[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 6; ++i) {
    const int steps = 10 + 5 * static_cast<int>(rng() % 3);  // 10..20
    Spec s;
    // 4-cell box: a 2-rank split of 3 cells would leave sub-boxes
    // thinner than the ghost cutoff.
    s.req = make_submit(tenants[i % 3], "soak-" + std::to_string(i),
                        melt_script(steps, 5, "processors 1 1 2\n", 4));
    specs.push_back(std::move(s));
  }

  std::vector<std::uint64_t> ids;
  {
    JobServer server(cfg);
    server.start();
    for (const Spec& s : specs) {
      const SubmitReply r = server.submit(s.req);
      ASSERT_TRUE(r.accepted) << r.detail;
      ids.push_back(r.job_id);
    }
    // Let some work land, then die abruptly.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.stop(StopMode::kAbandon);
  }
  {
    JobServer server(cfg);
    server.start();
    // Replayed workload: every submit re-attaches, nothing duplicates.
    for (const Spec& s : specs) {
      const SubmitReply r = server.submit(s.req);
      EXPECT_TRUE(r.already_known);
    }
    EXPECT_EQ(server.jobs().size(), specs.size());
    // Cancel one job somewhere in the mix, then die again mid-flight.
    server.cancel(ids[rng() % ids.size()]);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop(StopMode::kAbandon);
  }

  JobServer server(cfg);
  server.start();
  for (const Spec& s : specs) {
    const SubmitReply r = server.submit(s.req);
    EXPECT_TRUE(r.already_known);
  }
  ASSERT_TRUE(server.wait_all_terminal(300000));

  // Invariants: exactly the submitted jobs, every one terminal, attempt
  // budgets respected, terminal counters add up, queue never over cap.
  const std::vector<JobStatus> jobs = server.jobs();
  ASSERT_EQ(jobs.size(), specs.size());
  std::uint64_t done = 0, cancelled = 0, failed = 0;
  for (const JobStatus& s : jobs) {
    EXPECT_TRUE(is_terminal(s.state)) << s.name << ": " << s.detail;
    EXPECT_LE(s.attempts, cfg.default_max_attempts);
    if (s.state == JobState::kDone) {
      ++done;
      EXPECT_EQ(s.completed_steps, s.total_steps) << s.name;
    } else if (s.state == JobState::kCancelled) {
      ++cancelled;
    } else {
      ++failed;
      ADD_FAILURE() << s.name << " failed: " << s.detail;
    }
  }
  // Recoverable faults must not kill jobs: everything not cancelled
  // finishes.
  EXPECT_EQ(failed, 0u);
  EXPECT_GE(done, specs.size() - 1);
  // Counters are per-incarnation: jobs that reached a terminal state in
  // an earlier life are terminal at recovery, not re-counted here.
  const ServeStats st = server.stats();
  EXPECT_LE(st.completed + st.cancelled, done + cancelled);
  EXPECT_LE(st.queue_depth_peak, cfg.queue_capacity);
  EXPECT_EQ(st.queue_depth, 0);
  server.stop(StopMode::kDrain);
}

}  // namespace
}  // namespace lmp::serve
