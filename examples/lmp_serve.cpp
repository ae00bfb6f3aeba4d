// Multi-tenant simulation job server driver.
//
// Reads a workload file (one job per line:
//   <tenant> <name> <script-file> [deadline_ms [max_attempts]]
// '#' comments), submits every job through the binary wire protocol
// (encode_submit -> JobServer::handle_frames -> decode reply, the same
// bytes a remote client would send), waits for the queue to drain, and
// prints per-job outcomes plus the server/health tables.
//
// The journal makes the whole thing crash-safe: kill -9 this process,
// rerun the same command, and completed jobs stay completed while
// in-flight jobs resume from their last durable checkpoint. Submissions
// are idempotent per (tenant, name), so replaying the workload file
// after a crash re-attaches to the existing jobs instead of duplicating
// them.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/job_server.h"
#include "serve/stream_endpoint.h"

namespace {

using namespace lmp;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --journal FILE --workdir DIR --jobs FILE [options]\n"
      "  --journal FILE      durable job journal (created if absent)\n"
      "  --workdir DIR       checkpoints / reports / dumps directory\n"
      "  --jobs FILE         workload: tenant name script [deadline_ms "
      "[attempts]]\n"
      "  --workers N         worker lanes (default 1)\n"
      "  --queue N           admission queue capacity (default 32)\n"
      "  --quota T=Q,R       tenant T: max Q queued, R running (repeatable)\n"
      "  --default-quota Q,R default tenant quota (default 8,2)\n"
      "  --slice N           preferred checkpoint/slice cadence (default 10)\n"
      "  --keep N            keep only the newest N on-disk checkpoints per\n"
      "                      job (default: keep everything)\n"
      "  --integrity N       run silent-corruption guards every N steps\n"
      "  --deadline-ms N     default per-job deadline (default none)\n"
      "  --max-attempts N    default attempt budget (default 3)\n"
      "  --dumps             write job-<id>.dump final atoms\n"
      "  --chunks            print streamed thermo chunks for each job\n"
      "  --wait-ms N         drain timeout (default 600000)\n"
      "  --listen PATH       serve the wire protocol (and `watch` snapshot\n"
      "                      streams for lmp_top) on a Unix socket\n"
      "  --linger-ms N       keep serving N ms after the workload drains\n"
      "                      (so dashboards can attach; default 0)\n"
      "  --telemetry-ms N    telemetry sampling cadence (default 100)\n"
      "  --telemetry-window-ms N\n"
      "                      rolling aggregation/SLO window (default 10000)\n"
      "  --no-telemetry      disable the background sampler entirely\n"
      "  --slo-hit-rate X    per-tenant deadline hit-rate floor (default\n"
      "                      0.99; one miss in a small window breaches)\n"
      "  --slo-steps-min X   per-tenant steps/sec floor while running\n"
      "                      (default 0 = off)\n"
      "  --slo-queue-p99-ms N\n"
      "                      per-tenant queue-wait p99 ceiling (0 = off)\n",
      argv0);
  return 1;
}

struct WorkloadEntry {
  serve::SubmitRequest req;
  std::string script_path;
};

bool load_workload(const std::string& path, std::vector<WorkloadEntry>& out) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "error: cannot open workload file %s\n", path.c_str());
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    WorkloadEntry e;
    if (!(ls >> e.req.tenant)) continue;  // blank line
    if (!(ls >> e.req.name >> e.script_path)) {
      std::fprintf(stderr, "error: %s:%d: expected tenant name script\n",
                   path.c_str(), lineno);
      return false;
    }
    unsigned deadline = 0, attempts = 0;
    if (ls >> deadline) e.req.deadline_ms = deadline;
    if (ls >> attempts) e.req.max_attempts = static_cast<std::uint16_t>(attempts);
    std::ifstream sf(e.script_path);
    if (!sf) {
      std::fprintf(stderr, "error: %s:%d: cannot open script %s\n",
                   path.c_str(), lineno, e.script_path.c_str());
      return false;
    }
    std::ostringstream text;
    text << sf.rdbuf();
    e.req.script = text.str();
    out.push_back(std::move(e));
  }
  return true;
}

bool parse_quota(const std::string& spec, std::string* tenant,
                 serve::TenantQuota* q) {
  // "tenant=Q,R" (or "Q,R" when tenant is nullptr).
  std::string body = spec;
  if (tenant != nullptr) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) return false;
    *tenant = spec.substr(0, eq);
    body = spec.substr(eq + 1);
  }
  return std::sscanf(body.c_str(), "%d,%d", &q->max_queued, &q->max_running) ==
         2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerConfig cfg;
  std::string jobs_path;
  std::string listen_path;
  bool print_chunks = false;
  std::uint64_t wait_ms = 600000;
  std::uint64_t linger_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--journal" && (v = next())) {
      cfg.journal_path = v;
    } else if (a == "--workdir" && (v = next())) {
      cfg.work_dir = v;
    } else if (a == "--jobs" && (v = next())) {
      jobs_path = v;
    } else if (a == "--workers" && (v = next())) {
      cfg.workers = std::atoi(v);
    } else if (a == "--queue" && (v = next())) {
      cfg.queue_capacity = std::atoi(v);
    } else if (a == "--slice" && (v = next())) {
      cfg.slice_steps = std::atoi(v);
    } else if (a == "--keep" && (v = next())) {
      cfg.checkpoint_keep = std::atoi(v);
      if (cfg.checkpoint_keep < 1) return usage(argv[0]);
    } else if (a == "--integrity" && (v = next())) {
      cfg.integrity_cadence = std::atoi(v);
      if (cfg.integrity_cadence < 1) return usage(argv[0]);
    } else if (a == "--deadline-ms" && (v = next())) {
      cfg.default_deadline_ms = static_cast<std::uint32_t>(std::atol(v));
    } else if (a == "--max-attempts" && (v = next())) {
      cfg.default_max_attempts = static_cast<std::uint16_t>(std::atoi(v));
    } else if (a == "--quota" && (v = next())) {
      std::string tenant;
      serve::TenantQuota q;
      if (!parse_quota(v, &tenant, &q)) return usage(argv[0]);
      cfg.tenant_quotas[tenant] = q;
    } else if (a == "--default-quota" && (v = next())) {
      if (!parse_quota(v, nullptr, &cfg.default_quota)) return usage(argv[0]);
    } else if (a == "--dumps") {
      cfg.write_dumps = true;
    } else if (a == "--chunks") {
      print_chunks = true;
    } else if (a == "--wait-ms" && (v = next())) {
      wait_ms = static_cast<std::uint64_t>(std::atoll(v));
    } else if (a == "--listen" && (v = next())) {
      listen_path = v;
    } else if (a == "--linger-ms" && (v = next())) {
      linger_ms = static_cast<std::uint64_t>(std::atoll(v));
    } else if (a == "--telemetry-ms" && (v = next())) {
      cfg.telemetry.interval_ms = static_cast<std::uint32_t>(std::atol(v));
    } else if (a == "--telemetry-window-ms" && (v = next())) {
      cfg.telemetry.window_ms = std::atoll(v);
    } else if (a == "--no-telemetry") {
      cfg.telemetry.enabled = false;
    } else if (a == "--slo-hit-rate" && (v = next())) {
      cfg.telemetry.default_slo.deadline_hit_rate_min = std::atof(v);
    } else if (a == "--slo-steps-min" && (v = next())) {
      cfg.telemetry.default_slo.steps_per_sec_min = std::atof(v);
    } else if (a == "--slo-queue-p99-ms" && (v = next())) {
      cfg.telemetry.default_slo.queue_wait_p99_ms = std::atof(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.journal_path.empty() || cfg.work_dir.empty() || jobs_path.empty()) {
    return usage(argv[0]);
  }

  std::vector<WorkloadEntry> workload;
  if (!load_workload(jobs_path, workload)) return 1;

  serve::JobServer server(cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const serve::RecoveryInfo& rec = server.recovery();
  std::printf("journal: %llu jobs, %llu requeued, %llu torn bytes%s\n",
              static_cast<unsigned long long>(rec.jobs_seen),
              static_cast<unsigned long long>(rec.requeued),
              static_cast<unsigned long long>(rec.torn_bytes),
              rec.compacted ? " (compacted)" : "");

  std::unique_ptr<serve::StreamEndpoint> endpoint;
  if (!listen_path.empty()) {
    endpoint = std::make_unique<serve::StreamEndpoint>(server, listen_path);
    try {
      endpoint->start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      server.stop(serve::StopMode::kDrain);
      return 1;
    }
    std::printf("listening on %s\n", listen_path.c_str());
    std::fflush(stdout);
  }

  // Submit through the wire: the exact bytes a remote client would send.
  std::vector<char> frames;
  for (const WorkloadEntry& e : workload) {
    serve::encode_submit(frames, e.req);
  }
  const std::vector<char> replies =
      server.handle_frames(frames.data(), frames.size());
  std::size_t off = 0, idx = 0;
  while (off < replies.size() && idx < workload.size()) {
    const comm::FrameView f =
        comm::decode_frame(replies.data() + off, replies.size() - off);
    if (!f.ok()) break;
    const WorkloadEntry& e = workload[idx++];
    if (static_cast<serve::MsgType>(f.type) == serve::MsgType::kSubmitReply) {
      const serve::SubmitReply r =
          serve::decode_submit_reply(f.payload, f.payload_len);
      if (r.accepted) {
        std::printf("submit %s/%s: job %llu %s%s\n", e.req.tenant.c_str(),
                    e.req.name.c_str(),
                    static_cast<unsigned long long>(r.job_id),
                    serve::job_state_name(r.state),
                    r.already_known ? " (already known)" : "");
      } else {
        std::printf("submit %s/%s: rejected reason=%s detail=%s\n",
                    e.req.tenant.c_str(), e.req.name.c_str(),
                    serve::reject_reason_name(r.reject), r.detail.c_str());
      }
    } else {
      const serve::ErrorReply r = serve::decode_error(f.payload, f.payload_len);
      std::printf("submit %s/%s: error %s\n", e.req.tenant.c_str(),
                  e.req.name.c_str(), r.detail.c_str());
    }
    off += f.consumed;
  }

  const bool drained = server.wait_all_terminal(wait_ms);
  if (!drained) {
    std::fprintf(stderr, "error: queue not drained after %llu ms\n",
                 static_cast<unsigned long long>(wait_ms));
  }

  for (const serve::JobStatus& s : server.jobs()) {
    std::printf("job %llu %s/%s state=%s attempts=%u steps=%d/%d detail=%s\n",
                static_cast<unsigned long long>(s.job_id), s.tenant.c_str(),
                s.name.c_str(), serve::job_state_name(s.state), s.attempts,
                s.completed_steps, s.total_steps, s.detail.c_str());
    if (print_chunks && s.chunks_available > 0) {
      serve::FetchRequest fr;
      fr.job_id = s.job_id;
      fr.max_chunks = s.chunks_available;
      const serve::ChunksReply cr = server.fetch(fr);
      for (const std::string& c : cr.chunks) std::fputs(c.c_str(), stdout);
    }
  }

  // One forced sampling pass so the final table reflects the present
  // (terminal SLO outcomes land between sampler ticks otherwise).
  if (server.telemetry() != nullptr) server.telemetry()->tick();
  std::fputs(serve::format_server_table(server.stats()).c_str(), stdout);

  // Give dashboards a window to attach (or finish streaming) before the
  // server and its telemetry socket go away.
  if (linger_ms > 0) {
    std::printf("lingering %llu ms for telemetry clients\n",
                static_cast<unsigned long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  if (endpoint) endpoint->stop();
  server.stop(serve::StopMode::kDrain);
  return drained ? 0 : 1;
}
