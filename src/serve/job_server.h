#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/job_journal.h"
#include "serve/serve_protocol.h"
#include "serve/telemetry.h"
#include "tofu/fault.h"

namespace lmp::serve {

/// Per-tenant admission limits. `max_queued` bounds pending + retrying
/// jobs; `max_running` bounds concurrently executing jobs (enforced by
/// the scheduler — the tenant's queued jobs wait, they are not
/// rejected). `max_running == 0` disables the tenant outright:
/// submissions are rejected with kTenantRunningQuota.
struct TenantQuota {
  int max_queued = 8;
  int max_running = 2;
};

/// How stop() leaves the server.
enum class StopMode {
  /// Graceful: stop admitting, let running jobs finish (journaled),
  /// leave queued jobs pending in the journal for the next incarnation.
  kDrain,
  /// Crash rehearsal: workers abandon after the current slice and
  /// nothing further is journaled — the on-disk state is exactly what a
  /// kill -9 would leave. Used by the chaos tests; a real deployment
  /// uses kDrain.
  kAbandon,
};

struct ServerConfig {
  std::string journal_path;  ///< required: the durable job journal
  std::string work_dir;      ///< required: checkpoints/reports/dumps live here
  /// Worker lanes == max concurrent warm fabrics. 0 is valid and means
  /// admission-only (nothing executes): the deterministic mode the
  /// overload tests use to fill the queue without racing the scheduler.
  int workers = 1;
  int queue_capacity = 32;   ///< bounded admission queue (pending+retrying)
  TenantQuota default_quota{};
  std::map<std::string, TenantQuota> tenant_quotas;  ///< overrides by tenant
  std::uint32_t default_deadline_ms = 0;  ///< 0 = no deadline
  std::uint16_t default_max_attempts = 3;
  /// Preferred checkpoint/slice cadence (steps) when the script does not
  /// set `checkpoint`. The actual slice quantum is rounded up to a
  /// common multiple of checkpoint_every and thermo_every so sliced and
  /// uninterrupted runs produce bitwise-identical thermo series.
  int slice_steps = 10;
  /// On-disk checkpoint retention per job: keep only the newest K
  /// checkpoint files (0 = keep everything, the pre-retention behavior).
  int checkpoint_keep = 0;
  /// Server-wide integrity-guard cadence applied to every job whose
  /// script does not set its own (0 = guards off unless the script
  /// asks). See sim::IntegrityOptions.
  int integrity_cadence = 0;
  std::uint32_t retry_backoff_ms = 10;      ///< doubles per retry...
  std::uint32_t retry_backoff_max_ms = 200; ///< ...capped here
  bool write_reports = true;  ///< job-<id>.report.json on completion
  bool write_dumps = false;   ///< job-<id>.dump final atoms on completion
  /// Fault plan applied to every attempt (chaos runs). The seeded,
  /// message-identity-deterministic injector exercises the reliability
  /// protocol and failover ladder inside run_simulation; the default
  /// all-clean plan changes nothing.
  tofu::FaultPlan fault_plan{};
  /// Test hook, called before each attempt starts executing (outside the
  /// server lock). Throwing std::runtime_error injects a transient fault
  /// that exercises the retry path.
  std::function<void(std::uint64_t job_id, int attempt)> before_attempt_hook;
  /// Test hook, called immediately before every post-start journal
  /// append (submit records and state transitions alike). Throwing
  /// simulates a journal I/O failure (disk full, fsync error) and
  /// exercises the degraded mode described on JobServer.
  std::function<void()> journal_fault_hook;
  /// Live telemetry plane: background sampler cadence, rolling windows,
  /// and per-tenant SLO policies. Enabled by default; disable for
  /// byte-deterministic tests that count metrics exactly.
  TelemetryConfig telemetry{};
};

/// Long-lived in-process simulation job server.
///
/// Lifecycle: construct with a config, start() (opens + recovers the
/// journal, spawns workers), then drive it through submit/status/fetch/
/// cancel/stats — or hand it raw protocol bytes via handle_frames().
/// stop(kDrain) for a graceful shutdown, stop(kAbandon) to rehearse a
/// crash. A new JobServer started on the same journal_path continues
/// where the last one stopped: terminal jobs stay terminal, in-flight
/// jobs are requeued and resume from their newest journaled checkpoint
/// to bitwise-identical results.
///
/// Robustness contract: submit() never blocks and never throws on
/// overload — it returns a structured rejection (queue full, quota,
/// bad script, shutting down) in bounded time. Rejections are counted,
/// not stored, so an abusive client cannot grow server memory.
///
/// Journal I/O failure after start() (disk full, fsync error) degrades
/// the server deliberately instead of killing it: the first failed
/// append flips it into a non-accepting mode (new jobs could not be
/// made durable, so submissions get a structured kShuttingDown
/// rejection naming the error), while jobs already admitted run to a
/// terminal state in memory — clients can still drain status, chunks
/// and stats, and stop() still shuts down cleanly. No journal error
/// ever escapes a worker thread (which would std::terminate).
class JobServer {
 public:
  explicit JobServer(ServerConfig config);
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Opens (and recovers) the journal, spawns the worker lanes. Throws
  /// std::runtime_error on journal I/O failure or corruption.
  void start();
  bool running() const;

  /// Stops the server (idempotent). See StopMode.
  void stop(StopMode mode);

  // --- client surface (thread-safe) -------------------------------------
  SubmitReply submit(const SubmitRequest& req);
  std::optional<JobStatus> status(std::uint64_t job_id) const;
  ChunksReply fetch(const FetchRequest& req) const;
  CancelReply cancel(std::uint64_t job_id);
  ServeStats stats() const;

  /// All journaled jobs' current status, in id order (for end-of-run
  /// summaries and the chaos test's invariant checks).
  std::vector<JobStatus> jobs() const;

  /// Blocks until every known job is terminal (queue drained, nothing
  /// running) or `timeout_ms` elapsed; true when drained. Pass 0 to
  /// poll.
  bool wait_all_terminal(std::uint64_t timeout_ms) const;

  /// Protocol endpoint: decodes the frames in [data, data+len), applies
  /// them in order, and returns the concatenated reply frames. Malformed
  /// payloads and unknown types get kError replies; an undecodable
  /// stream (bad magic/CRC, truncation) stops processing at the broken
  /// frame. `consumed`, when given, receives how many input bytes were
  /// processed. Never throws on client bytes.
  std::vector<char> handle_frames(const char* data, std::size_t len,
                                  std::size_t* consumed = nullptr);

  const RecoveryInfo& recovery() const { return journal_.recovery(); }

  // --- live telemetry ---------------------------------------------------
  /// Point-in-time progress probe for the telemetry sampler: queue
  /// depth, running lanes/tenants, and per-job live step counts (the
  /// rank-0 progress atomics, which may run ahead of the journaled
  /// completed_steps). One brief lock acquisition.
  ServerProbe probe_telemetry() const;
  /// Fresh "lmp-telemetry-snapshot" JSON (the `stats`/`watch` payload).
  /// A minimal `{"enabled": false}` document when telemetry is off.
  std::string telemetry_snapshot_json();
  /// Null when cfg.telemetry.enabled is false.
  TelemetrySampler* telemetry() { return sampler_.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// In-memory job: the journaled core plus runtime-only scheduling and
  /// streaming state (lost on restart by design — chunks are transport,
  /// the journal and report files are the durable artifacts).
  struct Job {
    JournalJob j;
    std::int32_t total_steps = 0;  ///< run N from the script (0 if unknown)
    Clock::time_point admitted_at{};
    Clock::time_point ready_at{};    ///< retry backoff gate
    Clock::time_point deadline_at{}; ///< valid when has_deadline
    bool has_deadline = false;
    bool cancel_requested = false;
    std::vector<std::string> chunks;  ///< thermo text, one per slice
    /// Highest thermo step already streamed into `chunks`; -1 so the
    /// first slice after admission OR recovery streams the full series
    /// (a resumed run's result carries its checkpointed history, which
    /// the new incarnation has not streamed yet).
    int last_thermo_step = -1;
    /// Runtime-only integrity accumulators (detections/rollbacks are
    /// journaled in `j`; these two only feed the report and ServeStats).
    std::uint64_t integrity_checks = 0;
    std::uint64_t mem_flips_injected = 0;
    /// Live step progress: rank 0 of a running attempt stores the
    /// just-completed step here (SimOptions::progress); the telemetry
    /// sampler delta-reads it between slice boundaries. shared_ptr so
    /// the attempt keeps it alive independent of map operations.
    std::shared_ptr<std::atomic<std::int64_t>> live_step;
  };

  void worker_loop();
  /// Returns the id of a dispatchable job (marks it running) or 0;
  /// `next_wake` gets the earliest future ready_at when only backoff
  /// holds jobs back. Caller holds mu_.
  std::uint64_t pick_and_mark_running(std::unique_lock<std::mutex>& lk,
                                      Clock::time_point& next_wake);
  void run_one(std::uint64_t id);
  void finish_terminal(std::unique_lock<std::mutex>& lk, Job& job,
                       JobState state, const std::string& detail);
  /// Journals the job's current state (no-op under kAbandon or once the
  /// journal has failed). A throwing append is absorbed here: it flips
  /// the server into the degraded non-accepting mode instead of letting
  /// the exception escape a worker thread. Returns whether the record
  /// was made durable. Caller holds mu_.
  bool record_state_locked(const Job& job);
  /// Marks the journal dead after an append failure. Caller holds mu_.
  void journal_io_failed_locked(const std::exception& e);
  void release_lane_locked(const std::string& tenant);
  JobStatus status_of_locked(const Job& job) const;
  const TenantQuota& quota_for(const std::string& tenant) const;
  int queue_depth_locked() const;

  ServerConfig cfg_;
  JobJournal journal_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::map<std::uint64_t, Job> jobs_;
  std::map<std::string, std::uint64_t> by_key_;  ///< tenant + '\0' + name -> id
  std::map<std::string, int> tenant_running_;
  ServeStats stats_;
  bool started_ = false;
  bool accepting_ = false;
  bool stop_requested_ = false;
  bool abandon_ = false;
  bool journal_failed_ = false;   ///< degraded: appends lost, nothing admitted
  std::string journal_error_;     ///< first append failure (for rejections)
  std::vector<std::thread> workers_;
  std::unique_ptr<TelemetrySampler> sampler_;  ///< null when telemetry off
};

}  // namespace lmp::serve
