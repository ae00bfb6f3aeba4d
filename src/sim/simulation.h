#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/address_book.h"
#include "comm/comm_base.h"
#include "comm/health_monitor.h"
#include "md/config.h"
#include "md/thermo.h"
#include "minimpi/world.h"
#include "obs/alloc_tracker.h"
#include "obs/report.h"
#include "sim/integrity.h"
#include "tofu/fault.h"
#include "tofu/link_telemetry.h"
#include "tofu/network.h"
#include "util/timer.h"
#include "util/vec3.h"

namespace lmp::sim {

struct SimOptions {
  md::SimConfig config = md::SimConfig::lj_melt();
  util::Int3 cells{5, 5, 5};      ///< fcc cells per axis (4 atoms each)
  util::Int3 rank_grid{1, 1, 1};  ///< MPI-rank decomposition
  /// Communication variant, resolved by name against the CommFactory
  /// catalog (the paper's Fig. 12 ladder: `ref`, `mpi_p2p`,
  /// `utofu_3stage`, `4tni_p2p`, `6tni_p2p`, `opt`). Unknown names make
  /// run_simulation throw with the list of registered variants.
  std::string comm = "opt";
  std::uint64_t seed = 12345;
  int thermo_every = 10;
  /// Ablation switches (forwarded to the p2p engine).
  bool use_border_bins = true;
  bool balanced_assignment = true;
  /// Fault plan for chaos runs. When enabled() a FaultInjector is
  /// attached to the shared network and the p2p comm layer arms its
  /// reliability protocol; the default (all-clean) plan changes nothing.
  tofu::FaultPlan faults{};

  // --- step executor ---------------------------------------------------
  /// Both executors evaluate forces by running the same per-epoch step
  /// DAG. `barrier` runs it serially in canonical order after a blocking
  /// forward exchange (the classic verlet sequence); `async` runs it on
  /// a per-rank pool with the forward exchange inside it, so interior
  /// force work overlaps the in-flight ghost data. Same nodes, same
  /// fixed-order reductions: the trajectories are bitwise-identical by
  /// construction. Unknown names make run_simulation throw.
  std::string executor = "barrier";
  /// Worker count of the per-rank DAG pool (async executor only).
  int executor_threads = 2;

  // --- self-healing runtime -------------------------------------------
  /// Cut a checkpoint at the end of every Nth step (0 disables). The
  /// in-memory snapshot always feeds failover rollback; a file is also
  /// written when `checkpoint_path` is set.
  int checkpoint_every = 0;
  /// File prefix for checkpoint emission; the file for step N is
  /// `<prefix>.<N>`, written atomically (tmp + rename). Empty keeps
  /// checkpoints in memory only.
  std::string checkpoint_path;
  /// Resume from this checkpoint file instead of generating the lattice.
  /// Geometry/seed in the file must match the options; `checkpoint_every`
  /// is adopted from the file when the option is 0 and must match when
  /// nonzero (a different schedule breaks bitwise-identical restart).
  std::string restart_file;
  /// Degradation ladder tried in order after the active variant fails.
  /// Empty means `comm::default_failover_chain()`.
  std::vector<std::string> failover_chain;
  /// Soft escalation thresholds, assessed collectively at checkpoint
  /// steps. All-zero (default) means only hard comm errors fail over.
  comm::HealthThresholds health;
  /// Cap on comm-variant failovers; -1 means "rest of the chain".
  int max_failovers = -1;
  /// Keep only the newest K on-disk checkpoints under `checkpoint_path`
  /// (0 = keep everything). Pruned after each successful write.
  int checkpoint_keep = 0;

  // --- silent-corruption guards ---------------------------------------
  /// Cadenced NaN/box/momentum/energy sentinels with an allreduce'd
  /// verdict; a tripped guard rolls back to the last good checkpoint and
  /// recomputes. See IntegrityOptions.
  IntegrityOptions integrity;

  // --- live telemetry ---------------------------------------------------
  /// Step-progress hook for the telemetry sampler: when set, rank 0
  /// stores the just-completed step number here (relaxed) at the end of
  /// every step. One atomic store per step on one rank — the sampler
  /// thread delta-reads it; nothing on the hot path ever locks. The
  /// pointee must outlive the run.
  std::atomic<std::int64_t>* progress = nullptr;

  // --- steady-state zero-alloc guard ------------------------------------
  /// When set, rank 0 delta-reads the process-wide alloc counter after
  /// every step (two relaxed loads — the sample itself allocates
  /// nothing) and the run fails the guard if any step past the warmup
  /// window allocated. The per-scope attribution of the post-warmup
  /// window lands in JobResult::alloc_guard. Requires LMP_ALLOC_TRACE;
  /// without it the guard reports tracker_available=false and passes.
  bool alloc_guard = false;
  /// Steps to ignore before the zero-alloc window opens; negative picks
  /// the default of nsteps / 2.
  int alloc_guard_warmup = -1;
};

/// One thermo sample (identical on every rank after the reduction).
struct ThermoSample {
  int step = 0;
  md::ThermoState state;
};

/// Final state of one atom, identified by its global tag. The job-level
/// list is sorted by tag, so two runs of the same system are comparable
/// atom-by-atom regardless of how ranks ordered them locally — the
/// cross-variant golden test compares these bitwise.
struct AtomState {
  std::int64_t tag = 0;
  util::Vec3 pos;
  util::Vec3 vel;
};

/// Per-rank outcome of a run.
struct RankResult {
  util::StageTimer stages;
  comm::CommCounters comm;
  comm::CommHealthReport health;
  int nlocal_final = 0;
  std::vector<AtomState> atoms;  ///< final owned atoms (local order)
};

/// One comm-variant escalation: the health monitor (or a hard comm
/// error) retired `from_variant` at `fail_step`, the run rolled back to
/// the checkpoint at `resume_step`, and continued under `to_variant`.
/// `reason` carries the trigger — the typed error text or the exceeded
/// threshold, including the counters that tripped it.
struct EscalationEvent {
  int fail_step = 0;
  int resume_step = 0;
  std::string from_variant;
  std::string to_variant;
  std::string reason;
};

/// One silent-corruption recovery episode: an integrity guard tripped at
/// `detect_step`, the run rolled back to the checkpoint at `resume_step`
/// and recomputed. `verdict` is "transient" for a healed flip (the
/// recompute passed the step clean); a persistent fault never produces
/// an event — it terminates the run with sim::IntegrityError instead.
struct IntegrityEvent {
  int detect_step = 0;
  int resume_step = 0;
  std::string reason;
  std::string verdict;
};

/// The job's health record: the comm counters (the final attempt's ranks
/// summed, plus every attempt's fabric-side fault counters) and the
/// job-level story only the failover loop knows — checkpoints,
/// escalations, integrity recoveries, injected flips. Each attempt adds
/// its bookkeeping once; the events are appended by the loop itself, so
/// nothing ever merges them.
struct JobHealth : comm::CommHealthReport {
  std::uint64_t checkpoints_written = 0;  ///< checkpoint emissions this run
  double checkpoint_io_seconds = 0.0;     ///< wall time in checkpoint file I/O
  std::vector<EscalationEvent> escalations;  ///< variant failovers, in order
  // Silent-corruption guards (sim/integrity).
  std::uint64_t integrity_checks = 0;      ///< guard evaluations run
  std::uint64_t integrity_detections = 0;  ///< guard verdicts that tripped
  std::uint64_t integrity_rollbacks = 0;   ///< rollback+recompute launched
  std::uint64_t mem_flips_injected = 0;    ///< bit flips the chaos plan landed
  std::vector<IntegrityEvent> integrity_events;  ///< recoveries, in order

  /// True when nothing abnormal happened (degradation state, checkpoint
  /// activity, and guard evaluations ignored — running guards is normal;
  /// a guard *detection* or an injected flip is not).
  bool clean() const {
    return CommHealthReport::clean() && escalations.empty() &&
           integrity_detections == 0 && integrity_rollbacks == 0 &&
           mem_flips_injected == 0 && integrity_events.empty();
  }
};

/// Render the health record with the standard table layout (one counter
/// per row), then one line per escalation and per integrity rollback,
/// for end-of-run printing.
std::string format_health_table(const JobHealth& h);

/// Whole-job outcome.
struct JobResult {
  std::vector<RankResult> ranks;
  std::vector<ThermoSample> thermo;  ///< global series (rank 0's copy)
  std::vector<AtomState> atoms;      ///< whole system, sorted by tag
  /// Rank-summed reliability counters, the fabric-side injected fault
  /// totals, and the job-level events — what format_health_table prints.
  JobHealth health;
  long natoms = 0;
  double volume = 0.0;
  /// Step the (final) attempt resumed from: 0 for a fresh start, the
  /// checkpoint step for restarts and post-failover attempts.
  int restart_step = 0;
  /// Variant that actually finished the run — differs from
  /// SimOptions::comm when the degradation ladder was walked.
  std::string final_comm;
  /// Fabric link-utilization totals, accumulated over every attempt's
  /// network (empty when metrics collection was off).
  tofu::FabricSnapshot fabric;
  /// Steady-state zero-alloc verdict for the final attempt (enabled
  /// only when SimOptions::alloc_guard was set).
  obs::AllocGuardReport alloc_guard;

  util::StageTimer total_stages() const;
};

/// Runs one MD job: builds the FCC system, decomposes it over
/// rank_grid ranks (each a thread sharing a simulated TofuD network),
/// and integrates `nsteps` with the selected communication variant.
///
/// The LAMMPS verlet loop is followed exactly — initial integrate,
/// neighbor-rebuild decision (`every N check yes|no`, with the global
/// allreduce for `check yes`), exchange/borders/neighbor or forward,
/// pair (with EAM mid-pair comm), reverse, final integrate, thermo.
///
/// Self-healing: when `checkpoint_every` is set, each checkpoint step
/// forces a neighbor rebuild and snapshots owned atoms + thermo (and
/// writes `<checkpoint_path>.<step>` if a path is given). A hard comm
/// error (timeout, severed route, fabric abort) or a tripped health
/// threshold tears the job down, rolls back to the last checkpoint, and
/// rebuilds on the next variant of the failover chain; every hop is
/// recorded as an EscalationEvent in the returned health report. The
/// chain running dry rethrows the final failure as std::runtime_error.
JobResult run_simulation(const SimOptions& options, int nsteps);

/// Distill a finished job into the machine-readable run report: config
/// echo, stage breakdown (seconds + percent over one hoisted total),
/// health counters, escalation timeline, first/last thermo samples. The
/// metrics section is appended by RunReport::to_json at write time.
obs::RunReport build_run_report(const SimOptions& options, int nsteps,
                                const JobResult& result);

}  // namespace lmp::sim
