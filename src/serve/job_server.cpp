#include "serve/job_server.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "obs/alloc_tracker.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "sim/input_script.h"
#include "sim/simulation.h"
#include "tofu/hardware.h"

namespace lmp::serve {

namespace {

std::string job_key(const std::string& tenant, const std::string& name) {
  return tenant + '\0' + name;
}

/// Slice quantum for a parsed job: the smallest common multiple of the
/// checkpoint and thermo cadences at least `preferred` steps long.
/// Intermediate slice boundaries land only on these multiples, so the
/// boundary thermo sample (run_simulation records `step == nsteps`
/// unconditionally) coincides with the regular `step % thermo_every`
/// schedule — a sliced run's thermo series is bitwise-identical to an
/// uninterrupted one.
///
/// Computed in 64-bit and clamped to `total`: the cadences are
/// client-controlled, and an lcm like lcm(1999999999, 2000000000)
/// overflows int. Any quantum >= total means one full-run slice, which
/// is always correct (the final boundary records thermo regardless).
int slice_quantum(int checkpoint_every, int thermo_every, int preferred,
                  int total) {
  const long long cap = std::max(total, 1);
  const long long l = std::lcm(static_cast<long long>(std::max(1, checkpoint_every)),
                               static_cast<long long>(std::max(1, thermo_every)));
  if (l >= cap) return static_cast<int>(cap);
  const long long q = (std::max(preferred, 1) + l - 1) / l * l;
  return static_cast<int>(std::min(q, cap));
}

std::string format_thermo_chunk(const std::vector<sim::ThermoSample>& thermo,
                                int after_step) {
  std::string out;
  char line[256];
  for (const sim::ThermoSample& s : thermo) {
    if (s.step <= after_step) continue;
    std::snprintf(line, sizeof line, "%d %.17g %.17g %.17g %.17g\n", s.step,
                  s.state.temperature, s.state.pressure, s.state.kinetic,
                  s.state.potential);
    out += line;
  }
  return out;
}

/// Same per-atom text format as lmp_cli's final dump (%.17g round-trips
/// exactly), so server-side and CLI-side trajectories diff directly.
bool write_atom_dump(const std::string& path, const sim::JobResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const auto& a : r.atoms) {
    std::fprintf(f, "%lld %.17g %.17g %.17g %.17g %.17g %.17g\n",
                 static_cast<long long>(a.tag), a.pos.x, a.pos.y, a.pos.z,
                 a.vel.x, a.vel.y, a.vel.z);
  }
  std::fclose(f);
  return true;
}

obs::Counter& metric(const char* name) {
  return obs::MetricsRegistry::instance().counter(name);
}

}  // namespace

JobServer::JobServer(ServerConfig config) : cfg_(std::move(config)) {
  if (cfg_.journal_path.empty() || cfg_.work_dir.empty()) {
    throw std::invalid_argument("JobServer: journal_path and work_dir are "
                                "required");
  }
  if (cfg_.workers < 0) cfg_.workers = 0;
  if (cfg_.queue_capacity < 1) cfg_.queue_capacity = 1;
  if (cfg_.default_max_attempts < 1) cfg_.default_max_attempts = 1;
  if (cfg_.telemetry.interval_ms == 0) cfg_.telemetry.interval_ms = 100;
  if (cfg_.telemetry.window_ms <= 0) cfg_.telemetry.window_ms = 10000;
  if (cfg_.telemetry.series_capacity == 0) cfg_.telemetry.series_capacity = 512;
  if (cfg_.telemetry.enabled) {
    sampler_ = std::make_unique<TelemetrySampler>(*this, cfg_.telemetry);
  }
}

JobServer::~JobServer() { stop(StopMode::kDrain); }

void JobServer::start() {
  std::unique_lock<std::mutex> lk(mu_);
  if (started_) throw std::logic_error("JobServer: already started");

  journal_.open(cfg_.journal_path);
  const Clock::time_point now = Clock::now();
  for (const auto& [id, jj] : journal_.jobs()) {
    Job job;
    job.j = jj;
    job.admitted_at = now;
    job.ready_at = now;
    if (jj.deadline_ms > 0) {
      // Deadlines are wall-clock per incarnation: a recovered job gets
      // its full budget again (the old clock died with the old server).
      job.has_deadline = true;
      job.deadline_at = now + std::chrono::milliseconds(jj.deadline_ms);
    }
    job.total_steps = jj.completed_steps;
    job.live_step = std::make_shared<std::atomic<std::int64_t>>(
        static_cast<std::int64_t>(jj.completed_steps));
    if (!jj.script.empty()) {
      try {
        job.total_steps = sim::parse_input_script(jj.script).run_steps;
      } catch (const std::exception&) {
        // Journaled script no longer parses (version skew): fail it
        // rather than crash-loop the worker on it.
        job.j.state = JobState::kFailed;
        job.j.detail = "journaled script no longer parses";
        journal_.record_state(id, job.j.state, job.j.attempts,
                              job.j.completed_steps, job.j.restart_file,
                              job.j.detail, job.j.integrity_detections,
                              job.j.integrity_rollbacks);
      }
    }
    by_key_[job_key(jj.tenant, jj.name)] = id;
    jobs_.emplace(id, std::move(job));
  }
  stats_.recovered = journal_.recovery().requeued;
  stats_.journal_torn_bytes = journal_.recovery().torn_bytes;
  metric("serve.recovered").add(journal_.recovery().requeued);

  started_ = true;
  accepting_ = true;
  stop_requested_ = false;
  abandon_ = false;
  journal_failed_ = false;
  journal_error_.clear();
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (sampler_) {
    // The per-TNI utilization series rides the fabric link telemetry,
    // which only charges puts while metrics collection is on.
    obs::set_metrics_enabled(true);
    sampler_->start();
  }
}

bool JobServer::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return started_;
}

void JobServer::stop(StopMode mode) {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_) return;
    accepting_ = false;
    stop_requested_ = true;
    abandon_ = mode == StopMode::kAbandon;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& t : workers) t.join();
  // Sampler stops after the workers: the final tick still observes the
  // terminal transitions the drain produced.
  if (sampler_) sampler_->stop();
  std::lock_guard<std::mutex> lk(mu_);
  journal_.close();
  started_ = false;
}

const TenantQuota& JobServer::quota_for(const std::string& tenant) const {
  const auto it = cfg_.tenant_quotas.find(tenant);
  return it != cfg_.tenant_quotas.end() ? it->second : cfg_.default_quota;
}

int JobServer::queue_depth_locked() const {
  int n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.j.state == JobState::kPending ||
        job.j.state == JobState::kRetrying) {
      ++n;
    }
  }
  return n;
}

SubmitReply JobServer::submit(const SubmitRequest& req) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.submitted;
  metric("serve.submitted").add();

  SubmitReply reply;
  const auto reject = [&](RejectReason why, const std::string& detail) {
    reply.accepted = false;
    reply.state = JobState::kRejected;
    reply.reject = why;
    reply.detail = detail;
    metric("serve.rejected").add();
    return reply;
  };

  if (!accepting_) {
    ++stats_.rejected_shutdown;
    return reject(RejectReason::kShuttingDown,
                  journal_failed_
                      ? "journal failed, not accepting jobs: " + journal_error_
                      : "server is shutting down");
  }

  // Idempotent resubmit: same (tenant, name) answers with the existing
  // job, whatever state it reached — a client retrying a submit after a
  // server crash must not duplicate the job.
  const auto known = by_key_.find(job_key(req.tenant, req.name));
  if (known != by_key_.end()) {
    const Job& job = jobs_.at(known->second);
    ++stats_.duplicate_submits;
    reply.accepted = true;
    reply.already_known = true;
    reply.job_id = job.j.id;
    reply.state = job.j.state;
    reply.detail = job.j.detail;
    return reply;
  }

  int run_steps = 0;
  try {
    run_steps = sim::parse_input_script(req.script).run_steps;
  } catch (const std::exception& e) {
    ++stats_.rejected_bad_script;
    return reject(RejectReason::kBadScript, e.what());
  }

  const TenantQuota& q = quota_for(req.tenant);
  if (q.max_running <= 0) {
    ++stats_.rejected_quota;
    return reject(RejectReason::kTenantRunningQuota,
                  "tenant '" + req.tenant + "' has no run slots");
  }
  int tenant_queued = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.j.tenant == req.tenant && (job.j.state == JobState::kPending ||
                                       job.j.state == JobState::kRetrying)) {
      ++tenant_queued;
    }
  }
  if (tenant_queued >= q.max_queued) {
    ++stats_.rejected_quota;
    return reject(RejectReason::kTenantQueuedQuota,
                  "tenant '" + req.tenant + "' already has " +
                      std::to_string(tenant_queued) + " queued jobs");
  }
  if (queue_depth_locked() >= cfg_.queue_capacity) {
    ++stats_.rejected_queue_full;
    return reject(RejectReason::kQueueFull,
                  "admission queue at capacity (" +
                      std::to_string(cfg_.queue_capacity) + ")");
  }

  JournalJob jj;
  jj.id = journal_.next_id();
  jj.tenant = req.tenant;
  jj.name = req.name;
  jj.script = req.script;
  jj.deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : cfg_.default_deadline_ms;
  jj.max_attempts =
      req.max_attempts > 0 ? req.max_attempts : cfg_.default_max_attempts;
  try {
    if (cfg_.journal_fault_hook) cfg_.journal_fault_hook();
    journal_.record_submit(jj);  // write-ahead: durable before visible
  } catch (const std::exception& e) {
    journal_io_failed_locked(e);
    ++stats_.rejected_shutdown;
    return reject(RejectReason::kShuttingDown,
                  std::string("journal write failed: ") + e.what());
  }

  Job job;
  job.j = journal_.jobs().at(jj.id);
  job.total_steps = run_steps;
  job.live_step = std::make_shared<std::atomic<std::int64_t>>(0);
  job.admitted_at = Clock::now();
  job.ready_at = job.admitted_at;
  if (jj.deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline_at = job.admitted_at + std::chrono::milliseconds(jj.deadline_ms);
  }
  by_key_[job_key(jj.tenant, jj.name)] = jj.id;
  jobs_.emplace(jj.id, std::move(job));

  ++stats_.admitted;
  metric("serve.admitted").add();
  stats_.queue_depth = queue_depth_locked();
  stats_.queue_depth_peak = std::max(stats_.queue_depth_peak, stats_.queue_depth);
  obs::MetricsRegistry::instance().gauge("serve.queue_depth")
      .set(stats_.queue_depth);
  cv_.notify_one();

  reply.accepted = true;
  reply.job_id = jj.id;
  reply.state = JobState::kPending;
  return reply;
}

JobStatus JobServer::status_of_locked(const Job& job) const {
  JobStatus s;
  s.job_id = job.j.id;
  s.tenant = job.j.tenant;
  s.name = job.j.name;
  s.state = job.j.state;
  s.attempts = job.j.attempts;
  s.total_steps = job.total_steps;
  s.completed_steps = job.j.completed_steps;
  s.chunks_available = static_cast<std::uint32_t>(job.chunks.size());
  s.detail = job.j.detail;
  return s;
}

std::optional<JobStatus> JobServer::status(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  return status_of_locked(it->second);
}

ChunksReply JobServer::fetch(const FetchRequest& req) const {
  std::lock_guard<std::mutex> lk(mu_);
  ChunksReply reply;
  reply.job_id = req.job_id;
  reply.from_chunk = req.from_chunk;
  const auto it = jobs_.find(req.job_id);
  if (it == jobs_.end()) {
    reply.state = JobState::kRejected;
    reply.terminal = true;
    return reply;
  }
  const Job& job = it->second;
  const std::size_t n = job.chunks.size();
  std::size_t i = req.from_chunk;
  const std::size_t cap = req.max_chunks == 0 ? 16 : req.max_chunks;
  for (; i < n && reply.chunks.size() < cap; ++i) {
    reply.chunks.push_back(job.chunks[i]);
  }
  reply.state = job.j.state;
  reply.terminal = is_terminal(job.j.state);
  return reply;
}

CancelReply JobServer::cancel(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lk(mu_);
  CancelReply reply;
  reply.job_id = job_id;
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return reply;
  Job& job = it->second;
  reply.found = true;
  if (is_terminal(job.j.state)) {
    reply.state = job.j.state;
    return reply;
  }
  if (job.j.state == JobState::kRunning) {
    // The worker owns the transition: it sees the flag at the next slice
    // boundary and journals kCancelled itself.
    job.cancel_requested = true;
    reply.state = JobState::kRunning;
    return reply;
  }
  finish_terminal(lk, job, JobState::kCancelled, "cancelled before start");
  reply.state = JobState::kCancelled;
  return reply;
}

ServeStats JobServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServeStats s = stats_;
  s.queue_depth = queue_depth_locked();
  s.queue_depth_peak = std::max(s.queue_depth_peak, s.queue_depth);
  int running = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.j.state == JobState::kRunning) ++running;
  }
  s.running = running;
  if (sampler_) s.slo_breaches = sampler_->slo().breaches_entered();
  // Memory footprint for the billing/summary tables: heap numbers from
  // the alloc tracker (zero when compiled out), RSS live from /proc.
  const obs::AllocTotals mem = obs::AllocTracker::instance().totals();
  s.heap_live_bytes = mem.live_bytes;
  s.heap_high_water_bytes = mem.high_water_bytes;
  s.total_allocs = mem.allocs;
  s.rss_bytes = tofu::probe_rss_bytes();
  return s;
}

std::vector<JobStatus> JobServer::jobs() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(status_of_locked(job));
  return out;
}

bool JobServer::wait_all_terminal(std::uint64_t timeout_ms) const {
  std::unique_lock<std::mutex> lk(mu_);
  const auto all_terminal = [this] {
    for (const auto& [id, job] : jobs_) {
      if (!is_terminal(job.j.state)) return false;
    }
    return true;
  };
  return cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), all_terminal);
}

void JobServer::journal_io_failed_locked(const std::exception& e) {
  if (!journal_failed_) {
    journal_failed_ = true;
    journal_error_ = e.what();
    metric("serve.journal_io_errors").add();
  }
  accepting_ = false;  // further admissions could not be made durable
}

bool JobServer::record_state_locked(const Job& job) {
  if (abandon_ || journal_failed_) return false;
  try {
    if (cfg_.journal_fault_hook) cfg_.journal_fault_hook();
    journal_.record_state(job.j.id, job.j.state, job.j.attempts,
                          job.j.completed_steps, job.j.restart_file,
                          job.j.detail, job.j.integrity_detections,
                          job.j.integrity_rollbacks);
    return true;
  } catch (const std::exception& e) {
    journal_io_failed_locked(e);
    return false;
  }
}

void JobServer::finish_terminal(std::unique_lock<std::mutex>&, Job& job,
                                JobState state, const std::string& detail) {
  job.j.state = state;
  job.j.detail = detail;
  record_state_locked(job);
  switch (state) {
    case JobState::kDone:
      ++stats_.completed;
      metric("serve.completed").add();
      break;
    case JobState::kFailed:
      ++stats_.failed;
      metric("serve.failed").add();
      break;
    case JobState::kCancelled:
      ++stats_.cancelled;
      metric("serve.cancelled").add();
      break;
    default:
      break;
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - job.admitted_at)
                      .count();
  obs::MetricsRegistry::instance().histogram("serve.job_latency_ns")
      .record(static_cast<std::uint64_t>(ns));
  // Deadline SLO outcome: a deadline-carrying job that completes is a
  // hit; one that fails — by the deadline scanner or any other way — is
  // a miss the tenant's hit-rate window sees. Cancellations are the
  // client's own doing and count as neither.
  if (sampler_ && job.has_deadline &&
      (state == JobState::kDone || state == JobState::kFailed)) {
    sampler_->slo().record_deadline(job.j.tenant, obs::now_ns() / 1000000,
                                    state == JobState::kDone);
  }
  cv_.notify_all();
}

std::uint64_t JobServer::pick_and_mark_running(std::unique_lock<std::mutex>& lk,
                                               Clock::time_point& next_wake) {
  const Clock::time_point now = Clock::now();
  next_wake = now + std::chrono::seconds(3600);
  for (auto& [id, job] : jobs_) {
    if (job.j.state != JobState::kPending &&
        job.j.state != JobState::kRetrying) {
      continue;
    }
    if (job.has_deadline && now >= job.deadline_at) {
      ++stats_.deadline_missed;
      metric("serve.deadline_missed").add();
      finish_terminal(lk, job, JobState::kFailed,
                      "deadline missed before start (budget " +
                          std::to_string(job.j.deadline_ms) + " ms)");
      continue;
    }
    if (job.ready_at > now) {
      next_wake = std::min(next_wake, job.ready_at);
      if (job.has_deadline) next_wake = std::min(next_wake, job.deadline_at);
      continue;
    }
    const TenantQuota& q = quota_for(job.j.tenant);
    if (tenant_running_[job.j.tenant] >= q.max_running) continue;

    job.j.state = JobState::kRunning;
    ++job.j.attempts;
    ++tenant_running_[job.j.tenant];
    record_state_locked(job);
    if (sampler_) {
      // Queue-wait SLO sample: admission -> first dispatch of this
      // attempt (a retry's wait restarts at its backoff gate, which is
      // exactly the wait the tenant experiences).
      const double wait_ms =
          std::chrono::duration<double, std::milli>(now - job.admitted_at)
              .count();
      sampler_->slo().record_queue_wait(job.j.tenant, obs::now_ns() / 1000000,
                                        wait_ms);
    }
    stats_.queue_depth = queue_depth_locked();
    obs::MetricsRegistry::instance().gauge("serve.queue_depth")
        .set(stats_.queue_depth);
    return id;
  }
  return 0;
}

void JobServer::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (stop_requested_) return;
    Clock::time_point wake;
    const std::uint64_t id = pick_and_mark_running(lk, wake);
    if (id != 0) {
      lk.unlock();
      run_one(id);
      lk.lock();
      continue;
    }
    cv_.wait_until(lk, wake);
  }
}

void JobServer::run_one(std::uint64_t id) {
  // Snapshot everything the slice loop needs; the lock is only retaken
  // at slice boundaries (progress/cancel/deadline) and at the end.
  std::string script, tenant;
  std::uint16_t attempt = 0, max_attempts = 1;
  int total = 0;
  std::shared_ptr<std::atomic<std::int64_t>> live_step;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const Job& job = jobs_.at(id);
    script = job.j.script;
    tenant = job.j.tenant;
    attempt = job.j.attempts;
    max_attempts = job.j.max_attempts;
    total = job.total_steps;
    live_step = job.live_step;
  }
  const std::string prefix =
      cfg_.work_dir + "/job-" + std::to_string(id) + ".ck";

  bool done = false;
  std::string failure;
  sim::SimOptions final_opts;
  sim::JobResult final_result;
  // Whole-job integrity totals for the report (the final slice's result
  // only covers itself; the job has been accumulating across slices).
  std::uint64_t job_checks = 0, job_detections = 0, job_rollbacks = 0;
  std::uint64_t job_flips = 0;
  try {
    if (cfg_.before_attempt_hook) cfg_.before_attempt_hook(id, attempt);
    sim::ParsedScript parsed = sim::parse_input_script(script);
    const int quantum =
        slice_quantum(parsed.options.checkpoint_every,
                      parsed.options.thermo_every, cfg_.slice_steps, total);
    const int ck = parsed.options.checkpoint_every > 0
                       ? parsed.options.checkpoint_every
                       : quantum;
    for (;;) {
      int from = 0;
      std::string restart;
      {
        std::unique_lock<std::mutex> lk(mu_);
        Job& job = jobs_.at(id);
        if (abandon_) {
          release_lane_locked(tenant);
          return;
        }
        if (job.cancel_requested) {
          finish_terminal(lk, job, JobState::kCancelled,
                          "cancelled at step " +
                              std::to_string(job.j.completed_steps));
          release_lane_locked(tenant);
          return;
        }
        if (job.has_deadline && Clock::now() >= job.deadline_at) {
          ++stats_.deadline_missed;
          metric("serve.deadline_missed").add();
          finish_terminal(lk, job, JobState::kFailed,
                          "deadline missed at step " +
                              std::to_string(job.j.completed_steps) +
                              " (budget " + std::to_string(job.j.deadline_ms) +
                              " ms)");
          release_lane_locked(tenant);
          return;
        }
        from = job.j.completed_steps;
        restart = job.j.restart_file;
      }
      if (from >= total) {
        if (done || total <= 0) break;
        // Recovered job whose last incarnation crashed between the final
        // slice's progress record and the terminal record: the journal
        // says all steps completed, but this incarnation has streamed no
        // thermo and written no artifacts. Fall through with a
        // target == total slice: run_simulation restores the newest
        // checkpoint (a zero-step resume when it sits at `total`, at
        // most the final partial slice otherwise — or a full
        // deterministic re-run when no checkpoint was ever cut) and its
        // result carries the complete thermo history, so kDone is only
        // journaled after the report/dump exist and the full series is
        // fetchable.
      }
      const int target = static_cast<int>(std::min<long long>(
          total, (static_cast<long long>(from) / quantum + 1) *
                     static_cast<long long>(quantum)));

      sim::SimOptions opts = parsed.options;
      opts.checkpoint_every = ck;
      opts.checkpoint_path = prefix;
      opts.restart_file = restart;
      if (opts.checkpoint_keep == 0) opts.checkpoint_keep = cfg_.checkpoint_keep;
      if (opts.integrity.cadence == 0) {
        opts.integrity.cadence = cfg_.integrity_cadence;
      }
      if (cfg_.fault_plan.any_faults()) opts.faults = cfg_.fault_plan;
      opts.progress = live_step.get();
      // Attribute heap traffic from serving-side slice execution (script
      // re-parse, checkpoint resume, result marshalling) separately from
      // the sim stages, which carry their own scopes.
      LMP_ALLOC_SCOPE("serve:slice");
      sim::JobResult result = sim::run_simulation(opts, target);

      std::unique_lock<std::mutex> lk(mu_);
      Job& job = jobs_.at(id);
      const std::string chunk =
          format_thermo_chunk(result.thermo, job.last_thermo_step);
      if (!chunk.empty()) {
        job.chunks.push_back(chunk);
        job.last_thermo_step = result.thermo.back().step;
      }
      job.j.completed_steps = target;
      if (target % ck == 0) {
        job.j.restart_file = prefix + "." + std::to_string(target);
      }
      // Integrity bookkeeping: detections/rollbacks ride the journal
      // (durable per-job history), checks/flips feed stats and reports.
      const sim::JobHealth& sh = result.health;
      job.j.integrity_detections += sh.integrity_detections;
      job.j.integrity_rollbacks += sh.integrity_rollbacks;
      job.integrity_checks += sh.integrity_checks;
      job.mem_flips_injected += sh.mem_flips_injected;
      stats_.integrity_checks += sh.integrity_checks;
      stats_.integrity_detections += sh.integrity_detections;
      stats_.integrity_rollbacks += sh.integrity_rollbacks;
      stats_.mem_flips_injected += sh.mem_flips_injected;
      metric("serve.integrity_checks").add(sh.integrity_checks);
      metric("serve.integrity_detections").add(sh.integrity_detections);
      metric("serve.integrity_rollbacks").add(sh.integrity_rollbacks);
      metric("serve.mem_flips_injected").add(sh.mem_flips_injected);
      job_checks = job.integrity_checks;
      job_detections = job.j.integrity_detections;
      job_rollbacks = job.j.integrity_rollbacks;
      job_flips = job.mem_flips_injected;
      // Progress WAL: a crash after this point resumes from `target`,
      // not from the attempt's start.
      record_state_locked(job);
      if (target >= total) {
        final_opts = opts;
        final_result = std::move(result);
        done = true;
      }
    }
  } catch (const std::exception& e) {
    failure = e.what();
    if (failure.empty()) failure = "unknown failure";
  }

  if (done) {
    // The report covers the whole job, not just the final slice.
    final_result.health.integrity_checks = job_checks;
    final_result.health.integrity_detections = job_detections;
    final_result.health.integrity_rollbacks = job_rollbacks;
    final_result.health.mem_flips_injected = job_flips;
    // Durable artifacts before the terminal journal record: a report
    // that exists implies the journal says done, never the reverse.
    if (cfg_.write_reports) {
      const obs::RunReport report =
          sim::build_run_report(final_opts, total, final_result);
      obs::write_text_file(
          cfg_.work_dir + "/job-" + std::to_string(id) + ".report.json",
          report.to_json());
    }
    if (cfg_.write_dumps) {
      write_atom_dump(cfg_.work_dir + "/job-" + std::to_string(id) + ".dump",
                      final_result);
    }
  }

  std::unique_lock<std::mutex> lk(mu_);
  Job& job = jobs_.at(id);
  if (abandon_) {
    release_lane_locked(tenant);
    return;
  }
  if (done || job.j.completed_steps >= total) {
    finish_terminal(lk, job, JobState::kDone, "ok");
  } else if (!failure.empty()) {
    if (job.j.attempts >= job.j.max_attempts) {
      finish_terminal(lk, job, JobState::kFailed,
                      "attempt " + std::to_string(job.j.attempts) + "/" +
                          std::to_string(max_attempts) + ": " + failure);
    } else {
      ++stats_.retries;
      metric("serve.retries").add();
      const std::uint32_t shift =
          job.j.attempts > 0 ? job.j.attempts - 1 : 0;
      std::uint64_t backoff = cfg_.retry_backoff_ms;
      backoff <<= std::min<std::uint32_t>(shift, 16);
      backoff = std::min<std::uint64_t>(backoff, cfg_.retry_backoff_max_ms);
      job.j.state = JobState::kRetrying;
      job.j.detail = failure;
      job.ready_at = Clock::now() + std::chrono::milliseconds(backoff);
      record_state_locked(job);
      cv_.notify_all();
    }
  }
  release_lane_locked(tenant);
}

void JobServer::release_lane_locked(const std::string& tenant) {
  auto it = tenant_running_.find(tenant);
  if (it != tenant_running_.end() && it->second > 0) --it->second;
  cv_.notify_all();
}

ServerProbe JobServer::probe_telemetry() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServerProbe p;
  p.queue_depth = queue_depth_locked();
  p.jobs.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    if (job.j.state == JobState::kRunning) {
      ++p.running;
      p.running_tenants.insert(job.j.tenant);
    }
    JobProgress jp;
    jp.id = id;
    jp.tenant = job.j.tenant;
    jp.name = job.j.name;
    jp.state = job.j.state;
    jp.total_steps = job.total_steps;
    jp.rollbacks = job.j.integrity_rollbacks;
    const std::int64_t live =
        job.live_step ? job.live_step->load(std::memory_order_relaxed) : 0;
    jp.steps = std::max<std::int64_t>(live, job.j.completed_steps);
    p.jobs.push_back(std::move(jp));
  }
  return p;
}

std::string JobServer::telemetry_snapshot_json() {
  if (sampler_) return sampler_->snapshot_json();
  obs::JsonWriter j;
  j.begin_object();
  j.kv("schema", "lmp-telemetry-snapshot");
  j.kv("version", 2);
  j.kv("enabled", false);
  j.end_object();
  return j.str();
}

std::vector<char> JobServer::handle_frames(const char* data, std::size_t len,
                                           std::size_t* consumed) {
  std::vector<char> out;
  std::size_t off = 0;
  while (off < len) {
    const comm::FrameView f = comm::decode_frame(data + off, len - off);
    if (!f.ok()) {
      if (f.status != comm::FrameStatus::kNeedMore) {
        ErrorReply err;
        err.detail = f.status == comm::FrameStatus::kBadMagic ? "bad magic"
                     : f.status == comm::FrameStatus::kBadCrc
                         ? "frame CRC mismatch"
                         : "frame too large";
        encode_error(out, err);
      }
      break;  // cannot resync past a broken frame
    }
    try {
      switch (static_cast<MsgType>(f.type)) {
        case MsgType::kSubmit: {
          const SubmitReply r = submit(decode_submit(f.payload, f.payload_len));
          encode_submit_reply(out, r);
          break;
        }
        case MsgType::kStatus: {
          const StatusRequest req = decode_status(f.payload, f.payload_len);
          const std::optional<JobStatus> s = status(req.job_id);
          if (s) {
            encode_status_reply(out, *s);
          } else {
            encode_error(out, ErrorReply{"unknown job " +
                                         std::to_string(req.job_id)});
          }
          break;
        }
        case MsgType::kFetchChunks: {
          encode_chunks_reply(out, fetch(decode_fetch(f.payload,
                                                      f.payload_len)));
          break;
        }
        case MsgType::kCancel: {
          const CancelRequest req = decode_cancel(f.payload, f.payload_len);
          encode_cancel_reply(out, cancel(req.job_id));
          break;
        }
        case MsgType::kStatsJson: {
          WireReader r(f.payload, f.payload_len, "stats-json request");
          r.expect_done();
          encode_stats_json_reply(out, telemetry_snapshot_json());
          break;
        }
        case MsgType::kWatch: {
          // Transportless degenerate: one snapshot per watch frame. The
          // streaming loop lives in StreamEndpoint, which owns a
          // connection it can pace and tear down; a raw byte endpoint
          // has no connection to stream over.
          decode_watch(f.payload, f.payload_len);
          encode_stats_json_reply(out, telemetry_snapshot_json());
          break;
        }
        default:
          encode_error(out, ErrorReply{"unknown frame type " +
                                       std::to_string(f.type)});
          break;
      }
    } catch (const std::exception& e) {
      // ProtocolError from a malformed payload, or an I/O failure from
      // the journal: the connection gets a structured error, the server
      // stays up.
      encode_error(out, ErrorReply{e.what()});
    }
    off += f.consumed;
  }
  if (consumed != nullptr) *consumed = off;
  return out;
}

}  // namespace lmp::serve
