// serve-ckpt: closed-loop tenants driving an in-process JobServer over
// its wire protocol, and the server probe the MD workloads' traced runs
// use for the serve layer.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "comm/msg_codec.h"
#include "obs/tracer.h"
#include "serve/job_server.h"
#include "serve/serve_protocol.h"

namespace lmp::bench {

namespace {

namespace fs = std::filesystem;

constexpr int kSliceSteps = 10;    ///< server slice (and checkpoint) cadence
constexpr auto kPoll = std::chrono::microseconds(500);
/// Journal records the set-up samples recover, and how many samples.
constexpr int kSetupJournalFrames = 256;
constexpr int kSetupSamples = 61;

serve::ServerConfig server_config(const std::string& dir) {
  fs::create_directories(dir + "/wd");
  serve::ServerConfig c;
  c.journal_path = dir + "/journal.bin";
  c.work_dir = dir + "/wd";
  c.workers = 1;
  c.slice_steps = kSliceSteps;
  c.checkpoint_keep = 2;
  c.integrity_cadence = 50;
  c.write_dumps = true;  // final atoms, checked against the reference
  return c;
}

/// Checkpoint cadence the server gives a job (job_server.cpp: the slice
/// quantum, a multiple of the thermo cadence at least kSliceSteps long).
/// Checkpoint steps force a neighbor rebuild, so the uninterrupted
/// reference must run the same schedule to be comparable bit for bit.
int server_checkpoint_every(const sim::ParsedScript& p) {
  if (p.options.checkpoint_every > 0) return p.options.checkpoint_every;
  const long long l = std::max(1, p.options.thermo_every);
  const long long q = (kSliceSteps + l - 1) / l * l;
  return static_cast<int>(std::min<long long>(q, std::max(1, p.run_steps)));
}

/// Speaks the server's framed wire protocol through handle_frames().
class WireClient {
 public:
  explicit WireClient(serve::JobServer& s) : s_(s) {}

  serve::SubmitReply submit(const serve::SubmitRequest& r) {
    std::vector<char> req;
    serve::encode_submit(req, r);
    return call(req, serve::MsgType::kSubmitReply, serve::decode_submit_reply);
  }
  serve::JobStatus status(std::uint64_t id) {
    std::vector<char> req;
    serve::encode_status(req, {id});
    return call(req, serve::MsgType::kStatusReply, serve::decode_status_reply);
  }
  std::string all_chunks(std::uint64_t id) {
    std::string text;
    for (std::uint32_t from = 0;;) {
      std::vector<char> req;
      serve::encode_fetch(req, {id, from, 64});
      const serve::ChunksReply r =
          call(req, serve::MsgType::kChunksReply, serve::decode_chunks_reply);
      for (const std::string& c : r.chunks) text += c;
      if (r.chunks.empty()) return text;
      from += static_cast<std::uint32_t>(r.chunks.size());
    }
  }

 private:
  template <class Reply>
  Reply call(const std::vector<char>& req, serve::MsgType want,
             Reply (*decode)(const char*, std::size_t)) {
    const std::vector<char> rep = s_.handle_frames(req.data(), req.size());
    const comm::FrameView f = comm::decode_frame(rep.data(), rep.size());
    if (!f.ok()) throw std::runtime_error("serve: undecodable reply frame");
    if (static_cast<serve::MsgType>(f.type) == serve::MsgType::kError) {
      throw std::runtime_error("serve: error reply: " +
                               serve::decode_error(f.payload, f.payload_len).detail);
    }
    if (static_cast<serve::MsgType>(f.type) != want) {
      throw std::runtime_error("serve: unexpected reply type");
    }
    return decode(f.payload, f.payload_len);
  }

  serve::JobServer& s_;
};

/// One job as a client saw it.
struct JobRun {
  int slot = 0;
  std::uint64_t id = 0;
  serve::JobState state = serve::JobState::kRejected;
  std::string detail;
  std::string chunks;
  double submit_us = 0.0;
  double queue_s = 0.0;       ///< submit until first seen running
  double run_s = 0.0;         ///< first seen running until terminal
  double turnaround_s = 0.0;  ///< submit until terminal
  double done_at_s = 0.0;     ///< terminal, from the start of the loop
};

struct Session {
  std::string dir;
  std::unique_ptr<serve::JobServer> server;
  std::vector<std::string> scripts;  ///< one per slot
  std::vector<sim::JobResult> refs;  ///< uninterrupted reference per slot
  std::vector<JobRun> jobs;
  int steps_per_job = 0;
};

/// Closed loop: each client submits, waits for a terminal state, fetches
/// the streamed thermo, then submits its next job. Clients stop starting
/// jobs after `seconds` (or `max_jobs` each) and finish the one in flight.
/// Returns the wall time from the loop start to the last terminal state.
double client_loop(Session& s, int clients, double seconds, int max_jobs,
                   const std::string& phase) {
  const std::size_t first = s.jobs.size();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::mutex mu;
  std::vector<std::thread> threads;
  std::exception_ptr error;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        const std::string tenant(1, static_cast<char>('A' + c));
        WireClient wire(*s.server);
        for (int i = 0; i < max_jobs && Clock::now() < deadline; ++i) {
          JobRun j;
          j.slot = (i * clients + c) % static_cast<int>(s.scripts.size());
          const std::uint64_t op = Ledger::instance().new_op();
          LayerSpan whole(op, "serve", "job");
          serve::SubmitRequest req;
          req.tenant = tenant;
          req.name = phase + "-" + tenant + "-" + std::to_string(i);
          req.script = s.scripts[static_cast<std::size_t>(j.slot)];
          const auto t0 = Clock::now();
          serve::SubmitReply rep;
          {
            LayerSpan span(op, "serve", "submit");
            rep = wire.submit(req);
          }
          j.submit_us = seconds_since(t0) * 1e6;
          if (!rep.accepted) {
            j.detail = std::string("rejected: ") +
                       serve::reject_reason_name(rep.reject) + " " + rep.detail;
          } else {
            j.id = rep.job_id;
            serve::JobStatus st;
            {
              LayerSpan span(op, "serve", "queue");
              for (;;) {
                st = wire.status(j.id);
                if (st.state != serve::JobState::kPending &&
                    st.state != serve::JobState::kAdmitted) {
                  break;
                }
                std::this_thread::sleep_for(kPoll);
              }
            }
            j.queue_s = seconds_since(t0);
            {
              LayerSpan span(op, "serve", "run");
              while (!serve::is_terminal(st.state)) {
                std::this_thread::sleep_for(kPoll);
                st = wire.status(j.id);
              }
            }
            j.turnaround_s = seconds_since(t0);
            j.run_s = j.turnaround_s - j.queue_s;
            j.done_at_s = seconds_since(start);
            j.state = st.state;
            j.detail = st.detail;
            LayerSpan span(op, "serve", "fetch");
            j.chunks = wire.all_chunks(j.id);
          }
          std::lock_guard lock(mu);
          s.jobs.push_back(std::move(j));
        }
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  double last = 0.0;
  for (std::size_t k = first; k < s.jobs.size(); ++k) {
    last = std::max(last, s.jobs[k].done_at_s);
  }
  return last;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Builds the job scripts and their uninterrupted references.
Session make_session(const std::string& dir, std::vector<std::string> scripts,
                     bool perturb) {
  Session s;
  s.dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  s.scripts = std::move(scripts);
  for (const std::string& script : s.scripts) {
    const sim::ParsedScript p = sim::parse_input_script(script);
    sim::SimOptions o = p.options;
    o.checkpoint_every = server_checkpoint_every(p);
    s.refs.push_back(sim::run_simulation(o, p.run_steps));
    s.steps_per_job = p.run_steps;
  }
  if (perturb) bench::perturb(s.refs.front().atoms);  // fails that slot's jobs
  return s;
}

void start_server(Session& s) {
  s.server = std::make_unique<serve::JobServer>(server_config(s.dir + "/server"));
  s.server->start();
}

/// The first `frames` records of the journal at `path` (all of them when
/// it holds fewer), cut at a record boundary. `taken` receives the count.
std::string journal_prefix(const std::string& path, int frames, int* taken) {
  const std::string log = read_file(path);
  std::size_t at = 0;
  int n = 0;
  for (; n < frames; ++n) {
    const comm::FrameView f = comm::decode_frame(log.data() + at, log.size() - at);
    if (!f.ok()) break;
    at += f.consumed;
  }
  *taken = n;
  return log.substr(0, at);
}

/// Set-up samples: JobServer construction + start() on a copy of
/// `journal`, so start() recovers it (replay, requeue of the jobs that
/// were in flight at the cut, compaction with its fsync). The copies get
/// no worker lane, so requeued jobs stay queued and stop() returns at once.
std::vector<double> setup_samples(const std::string& dir,
                                  const std::string& journal, int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) {
    fs::remove_all(dir);
    serve::ServerConfig c = server_config(dir);
    c.workers = 0;
    std::ofstream(c.journal_path, std::ios::binary) << journal;
    const auto t0 = Clock::now();
    serve::JobServer server(c);
    server.start();
    v.push_back(seconds_since(t0));
    server.stop(serve::StopMode::kDrain);
  }
  fs::remove_all(dir);
  return v;
}

/// Each job's output must equal the uninterrupted run of its script.
void verify_jobs(const Session& s, Outcome& out) {
  const std::string wd = s.dir + "/server/wd";
  std::vector<std::string> dumps, thermos, drift_errors;
  for (const sim::JobResult& r : s.refs) {
    dumps.push_back(atom_dump_text(r.atoms));
    thermos.push_back(thermo_text(r.thermo));
    const double d = energy_drift(r.thermo);
    drift_errors.push_back(d <= kMaxEnergyDrift
                               ? ""
                               : "energy drift " + std::to_string(d) +
                                     " exceeds " + std::to_string(kMaxEnergyDrift));
  }
  for (const JobRun& j : s.jobs) {
    const auto k = static_cast<std::size_t>(j.slot);
    std::string err;
    if (j.state != serve::JobState::kDone) {
      err = "job " + std::to_string(j.id) + " ended " +
            serve::job_state_name(j.state) + ": " + j.detail;
    } else if (j.chunks != thermos[k]) {
      err = "job " + std::to_string(j.id) + ": streamed thermo differs from "
            "the uninterrupted run";
    } else if (read_file(wd + "/job-" + std::to_string(j.id) + ".dump") !=
               dumps[k]) {
      err = "job " + std::to_string(j.id) + ": final atoms differ from the "
            "uninterrupted run";
    } else {
      err = drift_errors[k];
    }
    out.operation(err);
  }
}

std::vector<double> field(const std::vector<JobRun>& jobs, double JobRun::*f) {
  std::vector<double> v;
  for (const JobRun& j : jobs) {
    if (j.state == serve::JobState::kDone) v.push_back(j.*f);
  }
  return v;
}

long completed(const std::vector<JobRun>& jobs) {
  return static_cast<long>(field(jobs, &JobRun::turnaround_s).size());
}

/// Median wall time of `n` uninterrupted run_simulation calls of `script`.
double direct_run_s(const std::string& script, int n) {
  const sim::ParsedScript p = sim::parse_input_script(script);
  std::vector<double> v;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    sim::run_simulation(p.options, p.run_steps);
    v.push_back(seconds_since(t0));
  }
  return median(v);
}

/// Per-layer serve metrics of a finished session.
void add_serve_ledger(const Session& s, double direct_s, Outcome& out,
                      const char* source) {
  out.add("serve.submit_us", median(field(s.jobs, &JobRun::submit_us)), source);
  out.add("serve.queue_wait_ms", median(field(s.jobs, &JobRun::queue_s)) * 1e3,
          source);
  out.add("serve.overhead_ratio",
          median(field(s.jobs, &JobRun::run_s)) / direct_s, source);
  out.add("serve.journal_bytes_per_job",
          static_cast<double>(fs::file_size(s.dir + "/server/journal.bin")) /
              static_cast<double>(std::max<std::size_t>(1, s.jobs.size())),
          source);
}

}  // namespace

void probe_server(const std::string& script, const RunConfig& cfg,
                  Outcome& out) {
  Session s = make_session(cfg.scratch_dir + "/serve-probe", {script},
                           cfg.perturb_reference);
  start_server(s);
  client_loop(s, 1, 60.0, 3, "probe");
  s.server->stop(serve::StopMode::kDrain);
  verify_jobs(s, out);
  add_serve_ledger(s, direct_run_s(script, 3), out, "probe");
  s.server.reset();
  fs::remove_all(s.dir);
}

void run_serve_workload(const RunConfig& cfg, Outcome& out) {
  std::vector<std::string> scripts;
  for (int k = 0; k < kServeSlots; ++k) {
    scripts.push_back(workload_script("serve-ckpt", cfg.seed, k));
  }
  Session s = make_session(cfg.scratch_dir + "/serve", scripts,
                           cfg.perturb_reference);

  const std::int64_t heap0 = start_heap_window();  // references held
  start_server(s);

  if (!cfg.trace) {
    const double wall = client_loop(s, 2, cfg.seconds, 1 << 20, "timed");
    s.server->stop(serve::StopMode::kDrain);
    verify_jobs(s, out);
    // Set-up: the restart of this server on a fixed prefix of the journal
    // its clients just wrote, so the recovered work does not grow with
    // the number of jobs a run completed.
    int frames = 0;
    const std::string journal =
        journal_prefix(s.dir + "/server/journal.bin", kSetupJournalFrames, &frames);
    const std::vector<double> setup =
        setup_samples(s.dir + "/setup", journal, kSetupSamples);
    const long done = completed(s.jobs);
    out.add("step_us", wall * 1e6 /
                           static_cast<double>(std::max(1L, done) * s.steps_per_job));
    out.add("setup_s", median(setup));
    out.add("job_s_p50", median(field(s.jobs, &JobRun::turnaround_s)));
    out.add("jobs_per_s", static_cast<double>(done) / std::max(wall, 1e-9));
    out.add("peak_heap_mb", peak_heap_mb(heap0));
    std::printf("serve-ckpt: %ld jobs done, job_s p25/p50/p75 %.4f/%.4f/%.4f, "
                "queue wait p50 %.4f s\n",
                done, quantile(field(s.jobs, &JobRun::turnaround_s), 25),
                quantile(field(s.jobs, &JobRun::turnaround_s), 50),
                quantile(field(s.jobs, &JobRun::turnaround_s), 75),
                median(field(s.jobs, &JobRun::queue_s)));
    std::printf("serve-ckpt: setup_s over %zu restarts on the first %d journal "
                "records, p25/p50/p75 %.6f/%.6f/%.6f s\n",
                setup.size(), frames, quantile(setup, 25), quantile(setup, 50),
                quantile(setup, 75));
  } else {
    Ledger::instance().enable(true);
    client_loop(s, 2, cfg.seconds / 3, 1 << 20, "untraced");
    const double untraced = median(field(s.jobs, &JobRun::turnaround_s));
    const std::size_t first_traced = s.jobs.size();

    // Each slice is a short run_simulation on fresh rank threads, so
    // small per-thread rings hold a whole slice.
    obs::Tracer::instance().reset();
    obs::Tracer::instance().set_buffer_capacity(4096);
    obs::set_metrics_enabled(true);
    obs::set_trace_categories(obs::kDefaultTraceCats);
    client_loop(s, 2, cfg.seconds / 3, 4, "traced");
    obs::set_trace_categories(0);
    obs::set_metrics_enabled(false);
    const std::string program_trace = obs::Tracer::instance().export_chrome_json();

    std::vector<JobRun> traced(s.jobs.begin() + static_cast<long>(first_traced),
                               s.jobs.end());
    out.add("obs.trace_overhead_ratio",
            median(field(traced, &JobRun::turnaround_s)) / untraced);
    s.server->stop(serve::StopMode::kDrain);
    verify_jobs(s, out);
    add_serve_ledger(s, direct_run_s(s.scripts.front(), 3), out, "run");

    // The stage/comm/alloc ledger of one job's MD, read from the
    // JobResult of the same script run uninterrupted.
    const sim::ParsedScript p = sim::parse_input_script(s.scripts.front());
    sim::SimOptions o = p.options;
    o.checkpoint_every = server_checkpoint_every(p);  // the server's schedule
    o.alloc_guard = true;
    obs::Tracer::instance().reset();
    obs::Tracer::instance().set_buffer_capacity(1 << 16);
    obs::set_metrics_enabled(true);
    obs::set_trace_categories(obs::kDefaultTraceCats);
    sim::JobResult r;
    {
      LayerSpan span(Ledger::instance().new_op(), "sim", "run_simulation");
      r = sim::run_simulation(o, p.run_steps);
    }
    obs::set_trace_categories(0);
    obs::set_metrics_enabled(false);
    std::string why;
    out.operation(same_atoms(r.atoms, s.refs.front().atoms, &why) ? "" : why);
    add_run_ledger(r, p.run_steps, out);
    complete_wait_ledger(p.options, p.run_steps, out);
    probe_decomposition(p.options, cfg.out_dir, out);
    write_trace_artifacts(cfg.out_dir, cfg.workload, out, program_trace);
  }
  s.server.reset();
  fs::remove_all(s.dir);
}

}  // namespace lmp::bench
