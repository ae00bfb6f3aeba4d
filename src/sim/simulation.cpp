#include "sim/simulation.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "comm/comm_factory.h"
#include "comm/directions.h"
#include "geom/lattice.h"
#include "md/eam.h"
#include "md/integrate.h"
#include "md/lj.h"
#include "md/neighbor.h"
#include "md/velocity.h"
#include "minimpi/runtime.h"
#include "obs/alloc_tracker.h"
#include "obs/tracer.h"
#include "sim/checkpoint.h"
#include "sim/failover.h"
#include "tofu/hardware.h"
#include "threadpool/spin_pool.h"
#include "threadpool/task_graph.h"
#include "util/table_printer.h"

namespace lmp::sim {

util::StageTimer JobResult::total_stages() const {
  util::StageTimer t;
  for (const auto& r : ranks) t += r.stages;
  return t;
}

namespace {

using util::Stage;

/// Internal control-flow exception: this attempt is over, roll back and
/// try the next variant. Thrown by every rank of a failing attempt (the
/// health allreduce makes the soft path collective; abort/poison fan the
/// hard path out), caught by run_attempt. Never escapes run_simulation.
class FailoverSignal : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Variant of the failover signal raised by a tripped integrity guard.
/// It rides the same teardown/rendezvous machinery (every rank throws
/// after the guard allreduce), but run_simulation classifies it
/// separately: a corruption verdict retries the SAME variant after a
/// rollback — the fabric is healthy, the data was not.
class IntegritySignal : public FailoverSignal {
 public:
  using FailoverSignal::FailoverSignal;
};

/// Shared job state every rank thread sees. One JobShared per *attempt*:
/// a poisoned World / aborted Network is permanent, so each failover
/// builds a fresh fabric instead of trying to scrub the old one.
struct JobShared {
  SimOptions opt;
  std::string variant;                   ///< comm variant of this attempt
  const CheckpointState* restart;        ///< null for a fresh start
  int start_step = 0;                    ///< loop resumes at start_step + 1
  geom::FccLattice lattice{1.0};
  geom::Box global;
  geom::Decomposition decomp{{1, 1, 1}, geom::Box{{0, 0, 0}, {1, 1, 1}}};
  std::vector<util::Vec3> positions;   ///< full system (fresh start only)
  std::vector<util::Vec3> velocities;  ///< full system (fresh start only)
  double density = 0.0;
  long natoms_total = 0;

  minimpi::World world;
  tofu::Network net;
  comm::AddressBook book;

  comm::HealthMonitor monitor;

  std::vector<RankResult> results;
  std::vector<ThermoSample> thermo;  ///< written by rank 0 only

  // --- checkpoint plumbing --------------------------------------------
  /// Per-rank staging area for owned atoms; rank 0 assembles the staged
  /// rows into a CheckpointState between two barriers.
  std::vector<std::vector<AtomState>> ckpt_stage;
  std::shared_ptr<const CheckpointState> last_ckpt;  ///< rollback target
  double ckpt_io_seconds = 0.0;
  std::uint64_t ckpts_written = 0;
  /// Content checksum of `last_ckpt`, recorded at commit and re-verified
  /// before the attempt loop resumes from it (integrity guards only).
  std::uint64_t last_ckpt_hash = 0;

  // --- silent-corruption guards ---------------------------------------
  /// Owned by run_simulation so transient-flip history survives the
  /// rollback/recompute attempts; null when no memory faults are planned.
  tofu::MemFaultInjector* mem = nullptr;
  std::atomic<std::uint64_t> integrity_checks{0};  ///< rank 0 counts guards

  // --- steady-state zero-alloc guard ------------------------------------
  /// Driven by rank 0's step loop when opt.alloc_guard is set. The
  /// counters it reads are process-wide, so the verdict covers every
  /// rank thread of the attempt, not just the sampler's.
  obs::AllocGuard alloc_guard;

  // --- failure rendezvous ---------------------------------------------
  std::atomic<bool> abort_requested{false};
  std::atomic<int> failed_ranks{0};
  std::mutex fail_mu;
  int fail_step = 0;
  std::string fail_reason;
  bool fail_integrity = false;  ///< root cause was a tripped guard
  std::exception_ptr fatal;  ///< genuine bug — rethrown, never failed over

  JobShared(const SimOptions& o, std::string variant_name,
            const CheckpointState* rst, tofu::MemFaultInjector* mem_inj)
      : opt(o),
        variant(std::move(variant_name)),
        restart(rst),
        world(o.rank_grid.x * o.rank_grid.y * o.rank_grid.z),
        net(o.rank_grid.x * o.rank_grid.y * o.rank_grid.z),
        book(o.rank_grid.x * o.rank_grid.y * o.rank_grid.z),
        monitor(o.health),
        mem(mem_inj) {
    if (o.faults.enabled()) {
      net.set_fault_injector(std::make_shared<tofu::FaultInjector>(o.faults));
    }
    const md::SimConfig& cfg = o.config;
    lattice = cfg.units.style == md::UnitStyle::kLj
                  ? geom::FccLattice::from_density(cfg.lattice_arg)
                  : geom::FccLattice::from_constant(cfg.lattice_arg);
    global = lattice.box_for(o.cells.x, o.cells.y, o.cells.z);
    decomp = geom::Decomposition(o.rank_grid, global);
    if (restart) {
      validate_restart();
      start_step = restart->step;
      thermo = restart->thermo;
      natoms_total = restart->natoms;
    } else {
      positions = lattice.generate(o.cells.x, o.cells.y, o.cells.z);
      velocities = md::create_velocities(positions.size(), cfg.t_init,
                                         cfg.mass, cfg.units, o.seed);
      natoms_total = static_cast<long>(positions.size());
    }
    density = static_cast<double>(natoms_total) / global.volume();
    results.resize(static_cast<std::size_t>(decomp.nranks()));
    ckpt_stage.resize(static_cast<std::size_t>(decomp.nranks()));
  }

  /// First failure wins: later notes (aborted/poisoned wakeups on peer
  /// ranks) keep the root cause intact. `integrity` marks the root cause
  /// as a corruption verdict; ranks with a local violation note it
  /// *before* the guard allreduce, so the detailed reason always beats
  /// the generic note clean peers record afterwards.
  void note_failure(int rank, int step, const std::string& reason,
                    bool integrity = false) {
    std::lock_guard lock(fail_mu);
    if (!fail_reason.empty()) return;
    fail_step = step;
    fail_reason = "rank " + std::to_string(rank) + ": " + reason;
    fail_integrity = integrity;
  }

  void note_fatal(std::exception_ptr ep) {
    std::lock_guard lock(fail_mu);
    if (!fatal) fatal = ep;
  }

  /// Rank 0, between the two barriers of a checkpoint step: freeze the
  /// staged per-rank atoms + thermo into the rollback snapshot and, when
  /// a path is configured, publish it to disk atomically.
  void commit_checkpoint(int step) {
    auto st = std::make_shared<CheckpointState>();
    st->step = step;
    st->checkpoint_every = opt.checkpoint_every;
    st->comm_variant = variant;
    st->seed = opt.seed;
    st->cells = opt.cells;
    st->rank_grid = opt.rank_grid;
    st->natoms = natoms_total;
    st->box = global;
    st->rank_atoms = ckpt_stage;
    st->thermo = thermo;
    if (!opt.checkpoint_path.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      write_checkpoint(opt.checkpoint_path + "." + std::to_string(step), *st);
      prune_checkpoints(opt.checkpoint_path, opt.checkpoint_keep);
      ckpt_io_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    ++ckpts_written;
    // Fingerprint the parked rollback target so a flip landing in the
    // parked state itself is caught before it gets recomputed from.
    last_ckpt_hash = opt.integrity.enabled() ? checkpoint_content_hash(*st) : 0;
    last_ckpt = std::move(st);
    LMP_TRACE_INSTANT(obs::TraceCat::kCkpt, "checkpoint.commit");
  }

 private:
  void validate_restart() {
    const auto mismatch = [](const std::string& what) {
      throw std::runtime_error("restart: checkpoint " + what +
                               " does not match the requested run");
    };
    if (!(restart->cells == opt.cells)) mismatch("cell counts");
    if (!(restart->rank_grid == opt.rank_grid)) mismatch("rank grid");
    if (restart->seed != opt.seed) mismatch("seed");
    if (restart->rank_atoms.size() !=
        static_cast<std::size_t>(opt.rank_grid.x * opt.rank_grid.y *
                                 opt.rank_grid.z)) {
      mismatch("rank count");
    }
    if (restart->box.lo.x != global.lo.x || restart->box.lo.y != global.lo.y ||
        restart->box.lo.z != global.lo.z || restart->box.hi.x != global.hi.x ||
        restart->box.hi.y != global.hi.y || restart->box.hi.z != global.hi.z) {
      mismatch("box");
    }
  }
};

/// One rank's full verlet driver.
class RankSim {
 public:
  RankSim(JobShared& job, int rank) : job_(job), rank_(rank) {
    const md::SimConfig& cfg = job.opt.config;

    // --- atoms: capacity from the theoretical upper bound (Sec. 3.4) ---
    const geom::Box sub = job.decomp.sub_box(rank);
    const util::Vec3 e = sub.extent();
    const double rc = cfg.neighbor_cutoff();
    const double own_vol = sub.volume();
    const double shell_vol =
        (e.x + 2 * rc) * (e.y + 2 * rc) * (e.z + 2 * rc) - own_vol;
    const auto cap = static_cast<int>(
        (own_vol * 1.5 + shell_vol * 2.0) * job.density + 256);
    atoms_.reserve_capacity(cap);

    if (job.restart) {
      // Checkpointed atoms are post-exchange: every row already lives in
      // its owner's sub-box, so the startup exchange migrates nothing and
      // the restarted trajectory stays bitwise-identical.
      const auto& mine =
          job.restart->rank_atoms[static_cast<std::size_t>(rank)];
      for (const AtomState& a : mine) atoms_.add_local(a.pos, a.vel, a.tag);
    } else {
      for (std::size_t i = 0; i < job.positions.size(); ++i) {
        if (job.decomp.owner_of(job.positions[i]) == rank) {
          atoms_.add_local(job.positions[i], job.velocities[i],
                           static_cast<std::int64_t>(i));
        }
      }
    }

    // --- potential ----------------------------------------------------
    if (cfg.potential == md::PotentialKind::kLennardJones) {
      potential_ = std::make_unique<md::LennardJones>(cfg.epsilon, cfg.sigma,
                                                      cfg.cutoff);
    } else {
      // Round-trip through the funcfl text format, as LAMMPS would read
      // the Cu_u3.eam file.
      const md::EamTable table =
          md::parse_funcfl(md::to_funcfl(md::make_cu_like_table(
              2000, 2000, cfg.cutoff)));
      potential_ = std::make_unique<md::Eam>(table);
    }

    // --- communication variant ----------------------------------------
    comm::CommContext cctx;
    cctx.decomp = &job.decomp;
    cctx.rank = rank;
    cctx.atoms = &atoms_;
    cctx.sub = sub;
    cctx.global = job.global;
    cctx.ghost_cutoff = rc;
    cctx.newton = cfg.newton;
    cctx.density = job.density;

    // The factory resolves the variant name to a builder; each builder
    // (registered by the driver's own translation unit) knows which
    // transport to stand up and which neighbor-list half rule its ghost
    // pattern needs.
    const comm::CommVariantInfo& info =
        comm::CommFactory::instance().at(job.variant);
    half_rule_ = info.half_rule;
    comm::CommBuildInputs inputs;
    inputs.ctx = cctx;
    inputs.world = &job.world;
    inputs.net = &job.net;
    inputs.book = &job.book;
    inputs.use_border_bins = job.opt.use_border_bins;
    inputs.balanced_assignment = job.opt.balanced_assignment;
    comm::CommInstance built = info.build(inputs);
    comm_ = std::move(built.comm);
    pool_ = std::move(built.pool);

    neighbor_ = std::make_unique<md::NeighborBuilder>(rc);
    integrator_ = std::make_unique<md::VerletNve>(
        cfg.dt, cfg.mass, 1.0 / cfg.units.mvv2e);

    // --- step executor ------------------------------------------------
    // Both executors run the same step DAG: barrier serially on this
    // rank thread, async on a per-rank pool.
    sub_ = sub;
    rc_ = rc;
    if (job.opt.executor == "async") {
      dag_pool_ = std::make_unique<pool::SpinThreadPool>(
          std::max(1, job.opt.executor_threads));
    }
  }

  int current_step() const { return step_; }

  void run(int nsteps) {
    const md::SimConfig& cfg = job_.opt.config;
    const int ckpt_every = job_.opt.checkpoint_every;
    nsteps_ = nsteps;

    comm_->setup();
    job_.world.barrier(rank_);  // addresses published on every rank

    rebuild();
    compute_forces();

    if (job_.opt.integrity.enabled()) {
      // Collective energy reference for the drift sentinel. The
      // allreduced value is identical on every rank, so the verdict
      // derived from it is too.
      energy_ref_ = reduce_state().total();
      have_energy_ref_ = true;
    }

    // Arm the zero-alloc guard after setup: lattice build, comm setup,
    // and the startup rebuild are allowed to allocate freely — only the
    // steady-state step loop is on trial.
    if (rank_ == 0 && job_.opt.alloc_guard) {
      job_.alloc_guard.arm(job_.opt.alloc_guard_warmup, nsteps);
    }

    for (step_ = job_.start_step + 1; step_ <= nsteps; ++step_) {
      LMP_TRACE_SPAN(obs::TraceCat::kSim, "step");
      {
        obs::ScopedStage s(timer_, Stage::kModify);
        integrator_->initial_integrate(atoms_);
      }
      inject_owned(step_);  // planned pos/vel bit flips land here

      // Checkpoint steps force a rebuild (skipping the check-yes
      // allreduce): the snapshot must be post-exchange so a restarted
      // run's startup rebuild reproduces this exact state.
      const bool ckpt_step = ckpt_every > 0 && step_ % ckpt_every == 0;
      bool do_rebuild = ckpt_step;
      if (!do_rebuild && step_ % cfg.neigh.every == 0) {
        if (cfg.neigh.check) {
          obs::ScopedStage s(timer_, Stage::kOther);
          // "check yes": everyone learns whether any atom anywhere moved
          // past half the skin (the EAM allreduce the paper highlights).
          do_rebuild = job_.world.allreduce_lor(rank_, moved_too_far());
        } else {
          do_rebuild = true;
        }
      }

      // The forward exchange rides the step DAG only where it can
      // overlap force work: async non-rebuild steps. Rebuild steps placed
      // their ghosts during borders(); barrier steps run the blocking
      // forward up front, charged to Comm.
      dag_forward_ = !do_rebuild && dag_pool_ != nullptr;
      if (do_rebuild) {
        rebuild();
      } else if (!dag_forward_) {
        obs::ScopedStage s(timer_, Stage::kComm);
        comm_->forward_positions();
      }
      compute_forces();
      inject_force(step_);  // planned force flips land here

      {
        obs::ScopedStage s(timer_, Stage::kModify);
        integrator_->final_integrate(atoms_);
      }

      if (step_ % job_.opt.thermo_every == 0 || step_ == nsteps) {
        obs::ScopedStage s(timer_, Stage::kOther);
        record_thermo(step_);
      }

      // Guards run BEFORE the checkpoint is staged: a state that fails
      // them never becomes a rollback target, which is what makes the
      // transient-recovery recompute bitwise-identical to a clean run.
      if (guard_step(step_)) check_integrity(step_);

      if (ckpt_step) {
        stage_checkpoint(step_);
        check_health(step_);
      }

      // Live-telemetry progress: one relaxed store per step on rank 0
      // only. The sampler thread delta-reads this to derive steps/sec;
      // the clean path without a hook pays one predictable branch.
      if (rank_ == 0 && job_.opt.progress != nullptr) {
        job_.opt.progress->store(step_, std::memory_order_relaxed);
      }

      // Zero-alloc guard sample: two relaxed counter reads on rank 0,
      // nothing allocated — the probe cannot trip itself. 0-based step
      // index so `warmup` counts steps, not step labels.
      if (rank_ == 0 && job_.opt.alloc_guard) {
        job_.alloc_guard.on_step(step_ - 1);
      }
    }

    RankResult& out = job_.results[static_cast<std::size_t>(rank_)];
    out.stages = timer_;
    out.comm = comm_->counters();
    out.health = comm_->health();
    out.nlocal_final = atoms_.nlocal();
    out.atoms.reserve(static_cast<std::size_t>(atoms_.nlocal()));
    for (int i = 0; i < atoms_.nlocal(); ++i) {
      out.atoms.push_back({atoms_.tag(i), atoms_.pos(i), atoms_.vel(i)});
    }
    // Keep RDMA buffers registered until every peer is done with them: a
    // rank that tears down early would yank memory a neighbor's comm
    // layer may still address.
    job_.world.barrier(rank_);
  }

 private:
  void rebuild() {
    {
      obs::ScopedStage s(timer_, Stage::kComm);
      atoms_.clear_ghosts();
      comm_->exchange();
      comm_->borders();
    }
    {
      obs::ScopedStage s(timer_, Stage::kNeigh);
      const md::SimConfig& cfg = job_.opt.config;
      list_ = cfg.newton ? neighbor_->build_half(atoms_, half_rule_)
                         : neighbor_->build_full(atoms_);
      snapshot_positions();
      // The band partition and the step DAG are functions of the
      // neighbor epoch: atoms keep their group until the next rebuild
      // (the list is frozen, so interior rows cannot grow ghost
      // neighbors mid-epoch). Each group's footprint — the entries the
      // sparse join drains — is fixed by the same list. Both reuse the
      // previous epoch's storage.
      groups_.assign(atoms_, sub_, rc_);
      groups_.build_footprints(list_, cfg.newton, atoms_.ntotal());
      build_step_graph();
    }
  }

  /// The one force path: the epoch's step DAG, run serially in
  /// canonical order (barrier: no pool) or on the DAG pool (async).
  /// Timed as Pair, so EAM's mid-pair rho/fp exchanges and, on async
  /// non-rebuild steps, the overlapped forward exchange count as hidden
  /// pair time (the trace spans keep the full attribution; see
  /// DESIGN.md section 12). The allocation ledger splits differently:
  /// task.fwd and task.wait open a stage:Comm scope, so the forward's
  /// heap traffic lands on the same row under both executors.
  void compute_forces() {
    {
      obs::ScopedStage s(timer_, Stage::kPair);
      atoms_.zero_forces();
      potential_->split_begin(atoms_, list_, job_.opt.config.newton,
                              &groups_);
      graph_.run(dag_pool_.get());
      last_force_ = potential_->split_finish();
    }
    if (job_.opt.config.newton) {
      // Ghost-force return is a Comm-stage cost in LAMMPS accounting.
      obs::ScopedStage r(timer_, Stage::kComm);
      comm_->reverse_forces();
    }
  }

  /// Build this epoch's step DAG, reusing the graph's storage: after the
  /// first few epochs a rebuild allocates nothing. Nodes:
  ///
  ///   task.fwd              forward_begin() — all sends on the wire
  ///   task.wait (xN)        forward_complete(ch), one per recv channel,
  ///                         chained per forward_channel_key (channels
  ///                         sharing a dispatcher must not race)
  ///   task.interior (mask 0) / task.border (per band group), pass 0;
  ///                         border groups gate on the waits of every
  ///                         direction they read (group_reads_dir)
  ///   task.mid / task.reduce  split_join(0): canonical reduction (+ EAM
  ///                         mid-pair comm), after all groups and waits
  ///   task.force (xG)       EAM pass-1 groups, after the mid join
  ///   task.reduce           EAM split_join(1)
  ///
  /// Eager comm variants expose no channels: every border group then
  /// gates directly on task.fwd, which ran the whole blocking exchange.
  /// task.fwd and task.wait do nothing unless dag_forward_ is set; when
  /// it is not, the ghosts landed before the run (blocking forward or
  /// borders()) and the graph is pure force work.
  void build_step_graph() {
    graph_.clear();
    const int fwd = graph_.add("task.fwd", [this] {
      if (!dag_forward_) return;
      LMP_ALLOC_SCOPE(util::stage_trace_name(Stage::kComm));
      comm_->forward_begin();
    });

    // Wait nodes take the ids first_wait + i, in channel order.
    const std::vector<int>& chans = comm_->forward_channels();
    const int nchans = static_cast<int>(chans.size());
    const int first_wait = graph_.size();
    for (int i = 0; i < nchans; ++i) {
      const int ch = chans[static_cast<std::size_t>(i)];
      const int w = graph_.add("task.wait", [this, ch] {
        if (!dag_forward_) return;
        LMP_ALLOC_SCOPE(util::stage_trace_name(Stage::kComm));
        comm_->forward_complete(ch);
      });
      graph_.depend(w, fwd);
      // Chain behind the previous wait on the same key.
      const int key = comm_->forward_channel_key(ch);
      for (int j = i - 1; j >= 0; --j) {
        if (comm_->forward_channel_key(chans[static_cast<std::size_t>(j)]) ==
            key) {
          graph_.depend(w, first_wait + j);
          break;
        }
      }
    }

    // Silent-corruption hook: ghost flips must land after ALL forward
    // traffic and before ANY ghost reader. The node (and its overlap
    // cost) exists only when memory faults are planned.
    int inject = -1;
    if (job_.mem && job_.mem->enabled()) {
      inject = graph_.add("task.inject", [this] { inject_ghosts(step_); });
      graph_.depend(inject, fwd);
      for (int i = 0; i < nchans; ++i) graph_.depend(inject, first_wait + i);
    }

    // Pass-0 group nodes take the ids first_group + g.
    const int ngroups = groups_.ngroups();
    const int first_group = graph_.size();
    for (int g = 0; g < ngroups; ++g) {
      const int mask = groups_.groups[static_cast<std::size_t>(g)].mask;
      const int node =
          graph_.add(mask == 0 ? "task.interior" : "task.border",
                     [this, g] { potential_->split_group(0, g); });
      if (mask != 0) {
        bool gated = false;
        for (int i = 0; i < nchans; ++i) {
          const util::Int3 d = comm::all_dirs()[static_cast<std::size_t>(
              chans[static_cast<std::size_t>(i)])];
          if (md::group_reads_dir(mask, d.x, d.y, d.z)) {
            graph_.depend(node, first_wait + i);
            gated = true;
          }
        }
        // No matching channel (eager comm, or a band whose ghost side
        // never receives under Newton half-shell): gate on the forward
        // node itself — conservative and always correct.
        if (!gated) graph_.depend(node, fwd);
        if (inject >= 0) graph_.depend(node, inject);
      }
    }

    // Every wait feeds the join even when no group reads it: the notice
    // must be consumed this step, and the next step's forward must not
    // start before this one's exchange fully landed.
    const int npasses = potential_->split_passes();
    const int join0 =
        graph_.add(npasses == 2 ? "task.mid" : "task.reduce",
                   [this] { potential_->split_join(0, comm_.get()); });
    for (int g = 0; g < ngroups; ++g) graph_.depend(join0, first_group + g);
    for (int i = 0; i < nchans; ++i) graph_.depend(join0, first_wait + i);
    if (inject >= 0) graph_.depend(join0, inject);

    int final_join = join0;
    if (npasses == 2) {
      const int first_force = graph_.size();
      for (int g = 0; g < ngroups; ++g) {
        const int node = graph_.add(
            "task.force", [this, g] { potential_->split_group(1, g); });
        graph_.depend(node, join0);
      }
      final_join = graph_.add(
          "task.reduce", [this] { potential_->split_join(1, comm_.get()); });
      for (int g = 0; g < ngroups; ++g) {
        graph_.depend(final_join, first_force + g);
      }
    }

    // The guard rides the DAG as its canonical terminal join: the
    // nonfinite-force prescan runs right where the reduced forces are
    // born, and check_integrity consumes its flag after the step.
    if (job_.opt.integrity.enabled()) {
      const int guard = graph_.add("task.guard", [this] { guard_prescan(); });
      graph_.depend(guard, final_join);
    }
  }

  bool moved_too_far() const {
    const double half_skin = 0.5 * job_.opt.config.skin;
    const double lim2 = half_skin * half_skin;
    const double* x = atoms_.x();
    for (int i = 0; i < atoms_.nlocal(); ++i) {
      const double dx = x[3 * i] - hold_[static_cast<std::size_t>(3 * i)];
      const double dy = x[3 * i + 1] - hold_[static_cast<std::size_t>(3 * i + 1)];
      const double dz = x[3 * i + 2] - hold_[static_cast<std::size_t>(3 * i + 2)];
      if (dx * dx + dy * dy + dz * dz > lim2) return true;
    }
    return false;
  }

  void snapshot_positions() {
    hold_.assign(atoms_.x(), atoms_.x() + 3 * atoms_.nlocal());
  }

  /// Collective thermo reduction — every rank returns the same state.
  md::ThermoState reduce_state() {
    const md::ThermoPartials local = md::local_thermo(
        atoms_, job_.opt.config.mass, last_force_.energy, last_force_.virial);
    md::ThermoPartials global;
    global.ke_sum = job_.world.allreduce_sum(rank_, local.ke_sum);
    global.pe = job_.world.allreduce_sum(rank_, local.pe);
    global.virial = job_.world.allreduce_sum(rank_, local.virial);
    global.natoms = job_.world.allreduce_sum(
        rank_, static_cast<std::int64_t>(local.natoms));
    return md::reduce_thermo(global, job_.opt.config.units,
                             job_.global.volume());
  }

  void record_thermo(int step) {
    const md::ThermoState state = reduce_state();
    if (rank_ == 0) job_.thermo.push_back({step, state});
  }

  /// End-of-step checkpoint: stage my owned atoms, then let rank 0
  /// freeze the collective snapshot between two barriers. The first
  /// barrier orders every rank's staging before the commit; the second
  /// keeps the stage buffers stable until the commit is done.
  void stage_checkpoint(int step) {
    obs::ScopedStage s(timer_, Stage::kOther);
    auto& mine = job_.ckpt_stage[static_cast<std::size_t>(rank_)];
    mine.clear();
    mine.reserve(static_cast<std::size_t>(atoms_.nlocal()));
    for (int i = 0; i < atoms_.nlocal(); ++i) {
      mine.push_back({atoms_.tag(i), atoms_.pos(i), atoms_.vel(i)});
    }
    job_.world.barrier(rank_);
    if (rank_ == 0) job_.commit_checkpoint(step);
    job_.world.barrier(rank_);
  }

  /// Collective soft-failure assessment at a checkpoint step: any rank
  /// whose counters cross a budget drags everyone into the failover
  /// together (the allreduce makes the decision symmetric, so no rank is
  /// left running against a torn-down fabric).
  void check_health(int step) {
    if (!job_.monitor.enabled()) return;
    obs::ScopedStage s(timer_, Stage::kOther);
    const comm::CommHealthReport h = comm_->health();
    const comm::EscalationDecision dec = job_.monitor.assess(h);
    if (dec.escalate) {
      job_.note_failure(rank_, step,
                        "health threshold: " + dec.reason + " [" +
                            comm::describe_counters(h) + "]");
    }
    const bool any = job_.world.allreduce_lor(rank_, dec.escalate);
    if (any) throw FailoverSignal("health threshold tripped");
  }

  // --- silent-corruption machinery -------------------------------------

  /// Planned bit flips into the owned position/velocity slabs, right
  /// after the half-kick moved them — the earliest point where this
  /// step's state exists to corrupt.
  void inject_owned(int step) {
    if (!job_.mem) return;
    job_.mem->apply(rank_, step, tofu::MemTarget::kPos, atoms_.x(),
                    static_cast<std::size_t>(3 * atoms_.nlocal()));
    job_.mem->apply(rank_, step, tofu::MemTarget::kVel, atoms_.v(),
                    static_cast<std::size_t>(3 * atoms_.nlocal()));
  }

  /// Flips into the landed ghost block of the position array: received
  /// data corrupted *after* the wire CRC passed. Runs as the DAG's
  /// task.inject node, gated on every forward wait, so all forward
  /// traffic for the step has landed. The startup evaluation (step 0)
  /// is not a step: no flips land there, as for the other slabs.
  void inject_ghosts(int step) {
    if (!job_.mem || step == 0 || atoms_.nghost() == 0) return;
    job_.mem->apply(rank_, step, tofu::MemTarget::kGhostPos,
                    atoms_.x() + 3 * atoms_.nlocal(),
                    static_cast<std::size_t>(3 * atoms_.nghost()));
  }

  /// Flips into the freshly reduced force slab, before the closing
  /// half-kick consumes it.
  void inject_force(int step) {
    if (!job_.mem) return;
    job_.mem->apply(rank_, step, tofu::MemTarget::kForce, atoms_.f(),
                    static_cast<std::size_t>(3 * atoms_.nlocal()));
  }

  /// Guards run on the cadence, at every checkpoint step (nothing may be
  /// committed unexamined) and at the final step (nothing unexamined may
  /// be returned).
  bool guard_step(int step) const {
    const IntegrityOptions& integ = job_.opt.integrity;
    if (!integ.enabled()) return false;
    if (step % integ.cadence == 0 || step == nsteps_) return true;
    const int every = job_.opt.checkpoint_every;
    return every > 0 && step % every == 0;
  }

  /// Canonical-join guard hook: a cheap nonfinite scan over the reduced
  /// forces, run as the DAG's terminal task.guard node — the same data
  /// point in both executors, so the verdicts they feed check_integrity
  /// match.
  void guard_prescan() {
    if (!guard_step(step_)) return;
    const double* f = atoms_.f();
    for (int i = 0; i < 3 * atoms_.nlocal(); ++i) {
      if (!std::isfinite(f[i])) {
        prescan_bad_ = true;
        return;
      }
    }
  }

  /// The integrity guard proper: local NaN/box scan, collective momentum
  /// and energy sentinels, then an allreduce'd verdict so every rank
  /// agrees before anyone tears down. Read-only on the physics state —
  /// a guarded clean run is bitwise-identical to an unguarded one.
  void check_integrity(int step) {
    obs::ScopedStage s(timer_, Stage::kOther);
    const IntegrityOptions& integ = job_.opt.integrity;
    const md::SimConfig& cfg = job_.opt.config;

    // Legitimate ghosts live up to one neighbor cutoff outside the box;
    // owned atoms drift less than half a skin between rebuilds.
    const RankScan scan = scan_atoms(atoms_, cfg.mass, job_.global,
                                     rc_ + cfg.skin);
    bool bad = scan.tripped();
    std::string reason = scan.reason;
    if (prescan_bad_) {
      bad = true;
      if (reason.empty()) reason = "nonfinite force at the task.guard join";
      prescan_bad_ = false;
    }

    // Total momentum: zeroed at t=0 and conserved by the pair forces to
    // rounding, so the budget scales with system size and mass.
    const double px = job_.world.allreduce_sum(rank_, scan.px);
    const double py = job_.world.allreduce_sum(rank_, scan.py);
    const double pz = job_.world.allreduce_sum(rank_, scan.pz);
    const double pcap = integ.momentum_tol *
                        static_cast<double>(job_.natoms_total) *
                        std::max(cfg.mass, 1.0);
    if (!(std::abs(px) <= pcap && std::abs(py) <= pcap &&
          std::abs(pz) <= pcap)) {  // negated so NaN momentum trips too
      bad = true;
      if (reason.empty()) {
        std::ostringstream os;
        os << "net momentum (" << px << ", " << py << ", " << pz
           << ") exceeds budget " << pcap;
        reason = os.str();
      }
    }

    // Energy drift against the collective reference captured at the
    // start of the attempt. NVE drifts O(dt^2); a flip moves orders of
    // magnitude, so the window separates them with a wide margin.
    const double e_now = reduce_state().total();
    if (have_energy_ref_) {
      const double span = integ.energy_tol *
                          std::max(std::abs(energy_ref_), 1.0);
      if (!(std::abs(e_now - energy_ref_) <= span)) {  // NaN trips
        bad = true;
        if (reason.empty()) {
          std::ostringstream os;
          os << "total energy " << e_now << " drifted from reference "
             << energy_ref_ << " beyond tolerance " << integ.energy_tol;
          reason = os.str();
        }
      }
    }

    if (rank_ == 0) {
      job_.integrity_checks.fetch_add(1, std::memory_order_relaxed);
    }
    // Local detail is noted BEFORE the verdict allreduce, so it always
    // beats the generic note clean peers record afterwards.
    if (bad) job_.note_failure(rank_, step, "integrity: " + reason, true);
    const bool any = job_.world.allreduce_lor(rank_, bad);
    if (any) {
      if (!bad) {
        job_.note_failure(rank_, step, "integrity guard tripped on a peer",
                          true);
      }
      throw IntegritySignal("integrity guard tripped at step " +
                            std::to_string(step));
    }
  }

  JobShared& job_;
  int rank_;
  int step_ = 0;
  md::Atoms atoms_;
  md::HalfRule half_rule_ = md::HalfRule::kAllGhosts;
  std::unique_ptr<md::Potential> potential_;
  std::unique_ptr<comm::Comm> comm_;
  std::unique_ptr<pool::SpinThreadPool> pool_;
  std::unique_ptr<md::NeighborBuilder> neighbor_;
  std::unique_ptr<md::VerletNve> integrator_;
  md::NeighborList list_;
  md::ForceResult last_force_;
  std::vector<double> hold_;
  util::StageTimer timer_;

  // --- integrity guard state ------------------------------------------
  int nsteps_ = 0;
  double energy_ref_ = 0.0;
  bool have_energy_ref_ = false;
  bool prescan_bad_ = false;  ///< set by the task.guard join node

  // --- step executor state --------------------------------------------
  geom::Box sub_;
  double rc_ = 0.0;
  md::ForceGroups groups_;                     ///< rebuilt per epoch
  pool::TaskGraph graph_;                      ///< rebuilt per epoch
  bool dag_forward_ = false;  ///< this step's forward runs inside graph_
  std::unique_ptr<pool::SpinThreadPool> dag_pool_;  ///< async only
};

/// Classify a rank failure: failover triggers are the typed comm errors
/// (and our own signal); anything else is a genuine bug that must
/// surface, not be retried on another variant.
bool is_failover_trigger(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const FailoverSignal&) {
    return true;
  } catch (const tofu::UnreachableError&) {
    return true;
  } catch (const tofu::CommTimeoutError&) {
    return true;
  } catch (const tofu::JobAbortedError&) {
    return true;
  } catch (const minimpi::PoisonedError&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// The fault-injector and network counters of one attempt's fabric.
comm::CommHealthReport harvest_fabric_stats(const JobShared& job) {
  comm::CommHealthReport h;
  if (const tofu::FaultInjector* inj = job.net.fault_injector()) {
    const tofu::FaultStats& fs = inj->stats();
    h.notices_dropped = fs.dropped.load(std::memory_order_relaxed);
    h.notices_delayed = fs.delayed.load(std::memory_order_relaxed);
    h.notices_duplicated = fs.duplicated.load(std::memory_order_relaxed);
    h.payloads_corrupted = fs.corrupted.load(std::memory_order_relaxed);
    h.tni_drops = fs.tni_drops.load(std::memory_order_relaxed);
    h.unreachable_puts = fs.unreachable_puts.load(std::memory_order_relaxed);
    h.fabric_puts = fs.fabric_puts.load(std::memory_order_relaxed);
    h.tnis_down = static_cast<int>(inj->plan().dead_tnis.size());
  }
  h.retransmit_puts =
      job.net.stats().retransmit_puts.load(std::memory_order_relaxed);
  return h;
}

}  // namespace

AttemptOutcome run_attempt(const SimOptions& options,
                           const std::string& variant,
                           const std::shared_ptr<const CheckpointState>& from,
                           int nsteps, tofu::MemFaultInjector* mem,
                           JobResult& record) {
  JobShared job(options, variant, from.get(), mem);
  const int nranks = job.decomp.nranks();

  const auto rank_main = [&](int rank) {
    LMP_TRACE_THREAD(rank, 0, "rank");
    std::optional<RankSim> sim;
    try {
      sim.emplace(job, rank);
      sim->run(nsteps);
    } catch (...) {
      const std::exception_ptr ep = std::current_exception();
      const bool trigger = is_failover_trigger(ep);
      if (trigger) {
        try {
          std::rethrow_exception(ep);
        } catch (const std::exception& e) {
          job.note_failure(rank, sim ? sim->current_step() : 0, e.what());
        }
      } else {
        job.note_fatal(ep);
      }
      job.abort_requested.store(true, std::memory_order_release);
      job.net.abort_fabric("rank " + std::to_string(rank) + " failed");
      job.world.poison("rank " + std::to_string(rank) + " failed");
      job.failed_ranks.fetch_add(1, std::memory_order_acq_rel);
      // Rendezvous before destroying the comm layer: peers may still be
      // in flight against our registered buffers until their own
      // failure handling starts. The deadline covers a rank that
      // finished cleanly before the poison landed.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (job.failed_ranks.load(std::memory_order_acquire) < nranks &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      sim.reset();
      if (trigger) throw FailoverSignal("attempt failed");
      std::rethrow_exception(ep);
    }
  };

  bool failed = false;
  try {
    minimpi::run_ranks(nranks, rank_main);
  } catch (const FailoverSignal&) {
    failed = true;
  }
  // run_ranks rethrows the *first* captured exception; a genuine bug on
  // a slower rank may have been recorded after a peer's signal.
  if (job.fatal) std::rethrow_exception(job.fatal);

  // The attempt's bookkeeping joins the job record on either outcome:
  // checkpoints written and fabric faults and traffic up to a failure
  // are real (the unreachable puts happened on the *retired* variant's
  // fabric). The finishing attempt's links lead the merge, so links with
  // equal bytes keep their established report order.
  JobHealth& health = record.health;
  health.checkpoints_written += job.ckpts_written;
  health.checkpoint_io_seconds += job.ckpt_io_seconds;
  health.integrity_checks +=
      job.integrity_checks.load(std::memory_order_relaxed);
  health += harvest_fabric_stats(job);
  tofu::FabricSnapshot links = job.net.link_telemetry().snapshot();
  if (failed) {
    record.fabric += links;
  } else {
    links += record.fabric;
    record.fabric = std::move(links);
  }

  AttemptOutcome out;
  out.last_ckpt = job.last_ckpt;
  out.last_ckpt_hash = job.last_ckpt_hash;
  if (failed) {
    std::lock_guard lock(job.fail_mu);
    out.fail_step = job.fail_step;
    out.fail_reason =
        job.fail_reason.empty() ? "unknown failure" : job.fail_reason;
    out.integrity = job.fail_integrity;
    return out;
  }

  out.ok = true;
  record.ranks = std::move(job.results);
  record.thermo = std::move(job.thermo);
  record.natoms = job.natoms_total;
  record.volume = job.global.volume();
  record.atoms.reserve(static_cast<std::size_t>(record.natoms));
  for (const auto& r : record.ranks) {
    record.atoms.insert(record.atoms.end(), r.atoms.begin(), r.atoms.end());
    health += r.health;
  }
  std::sort(record.atoms.begin(), record.atoms.end(),
            [](const AtomState& a, const AtomState& b) { return a.tag < b.tag; });
  if (job.opt.alloc_guard) record.alloc_guard = job.alloc_guard.report();
  return out;
}

namespace {

/// The health record's integer counters in table order: the one list
/// format_health_table and the run report's health section share.
std::vector<std::pair<std::string, std::uint64_t>> health_counters(
    const JobHealth& h) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, m] : comm::kHealthCounters) {
    out.emplace_back(name, h.*m);
  }
  out.emplace_back("tnis_in_use", static_cast<std::uint64_t>(h.tnis_in_use));
  out.emplace_back("tnis_down", static_cast<std::uint64_t>(h.tnis_down));
  out.emplace_back("checkpoints_written", h.checkpoints_written);
  return out;
}

}  // namespace

std::string format_health_table(const JobHealth& h) {
  util::TablePrinter t({"comm health", "count"});
  const auto row = [&t](const std::string& name, std::uint64_t v) {
    t.add_row({name, std::to_string(v)});
  };
  for (const auto& [name, v] : health_counters(h)) row(name, v);
  t.add_row({"checkpoint_io_s",
             util::TablePrinter::fmt(h.checkpoint_io_seconds, 3)});
  t.add_row({"escalations", std::to_string(h.escalations.size())});
  row("integrity_checks", h.integrity_checks);
  row("integrity_detections", h.integrity_detections);
  row("integrity_rollbacks", h.integrity_rollbacks);
  row("mem_flips_injected", h.mem_flips_injected);
  std::string out = t.to_string();
  // The recovery story: one line per failover, after the counter table.
  for (const EscalationEvent& e : h.escalations) {
    out += "escalation at step " + std::to_string(e.fail_step) + ": " +
           e.from_variant + " -> " + e.to_variant + " (resumed from step " +
           std::to_string(e.resume_step) + "; " + e.reason + ")\n";
  }
  // One line per healed corruption, in the same grep-able style.
  for (const IntegrityEvent& e : h.integrity_events) {
    out += "integrity rollback at step " + std::to_string(e.detect_step) +
           ": resumed from step " + std::to_string(e.resume_step) +
           " (verdict=" + e.verdict + "; " + e.reason + ")\n";
  }
  return out;
}

obs::RunReport build_run_report(const SimOptions& options, int nsteps,
                                const JobResult& result) {
  obs::RunReport rep;
  rep.workload = options.config.name;
  rep.comm_requested = options.comm;
  rep.comm_final = result.final_comm;
  rep.nsteps = nsteps;
  rep.restart_step = result.restart_step;
  rep.nranks = static_cast<int>(result.ranks.size());
  rep.natoms = result.natoms;

  const auto int3 = [](const util::Int3& v) {
    return std::to_string(v.x) + "x" + std::to_string(v.y) + "x" +
           std::to_string(v.z);
  };
  rep.config = {
      {"cells", int3(options.cells)},
      {"rank_grid", int3(options.rank_grid)},
      {"seed", std::to_string(options.seed)},
      {"thermo_every", std::to_string(options.thermo_every)},
      {"checkpoint_every", std::to_string(options.checkpoint_every)},
      {"newton", options.config.newton ? "on" : "off"},
      {"dt", std::to_string(options.config.dt)},
      {"cutoff", std::to_string(options.config.cutoff)},
      {"skin", std::to_string(options.config.skin)},
      {"executor", options.executor},
      {"use_border_bins", options.use_border_bins ? "yes" : "no"},
      {"balanced_assignment", options.balanced_assignment ? "yes" : "no"},
      {"faults", options.faults.any_faults() ? "enabled" : "clean"},
      {"integrity_cadence", std::to_string(options.integrity.cadence)},
      {"checkpoint_keep", std::to_string(options.checkpoint_keep)},
  };

  const util::StageTimer stages = result.total_stages();
  const double total = stages.total();  // one denominator for every row
  rep.stage_total_seconds = total;
  for (const util::Stage s : util::all_stages()) {
    rep.stages.push_back({std::string(util::stage_name(s)), stages.get(s),
                          stages.percent(s, total)});
  }

  const JobHealth& h = result.health;
  rep.health_counters = health_counters(h);

  rep.checkpoint_io_seconds = h.checkpoint_io_seconds;
  for (const EscalationEvent& e : h.escalations) {
    rep.escalations.push_back(
        {e.fail_step, e.resume_step, e.from_variant, e.to_variant, e.reason});
  }

  // v3: silent-corruption guard results.
  rep.integrity_checks = h.integrity_checks;
  rep.integrity_detections = h.integrity_detections;
  rep.integrity_rollbacks = h.integrity_rollbacks;
  rep.mem_flips_injected = h.mem_flips_injected;
  for (const IntegrityEvent& e : h.integrity_events) {
    rep.integrity_events.push_back(
        {e.detect_step, e.resume_step, e.reason, e.verdict});
  }

  // v2: fabric link utilization. The topology is reconstructed the same
  // way the telemetry built it (linear proc -> node over for_nodes), so
  // node ids resolve to the coordinates the traffic actually crossed.
  const tofu::FabricSnapshot& fs = result.fabric;
  rep.fabric_total_bytes = fs.total_bytes;
  rep.fabric_total_packets = fs.total_packets;
  rep.fabric_puts_charged = fs.puts_charged;
  rep.fabric_links_used = fs.links.size();
  rep.fabric_max_link_bytes = fs.max_link_bytes();
  rep.fabric_mean_link_bytes = fs.mean_link_bytes();
  rep.hop_histogram = fs.hop_histogram;
  if (!fs.links.empty()) {
    const tofu::Topology topo =
        tofu::Topology::for_nodes(std::max(1, rep.nranks));
    const std::size_t top_k = std::min<std::size_t>(10, fs.links.size());
    for (std::size_t i = 0; i < top_k; ++i) {
      const tofu::FabricLinkStat& l = fs.links[i];
      rep.top_links.push_back({topo.coord_of(l.from_node).to_string(),
                               topo.coord_of(l.to_node).to_string(),
                               std::string(tofu::axis_name(l.axis)) +
                                   (l.negative ? "-" : "+"),
                               l.bytes, l.packets});
    }
  }

  // v4: memory. Process-wide alloc-tracker totals at report-build time —
  // the per-scope rows come from the same slot table the hooks bump, so
  // their sum always reconciles with the global counters (CI asserts
  // this on every traced run). RSS is sampled live from /proc.
  rep.mem_tracked = obs::alloc_trace_compiled_in();
  const obs::AllocTotals mem = obs::AllocTracker::instance().totals();
  rep.mem_total_allocs = mem.allocs;
  rep.mem_total_frees = mem.frees;
  rep.mem_total_bytes = mem.bytes;
  rep.mem_live_bytes = mem.live_bytes;
  rep.mem_high_water_bytes = mem.high_water_bytes;
  rep.mem_rss_bytes = tofu::probe_rss_bytes();
  for (const obs::AllocSlotStats& s : obs::AllocTracker::instance().by_scope()) {
    rep.mem_scopes.push_back({s.name, s.allocs, s.frees, s.bytes});
  }

  const auto thermo_kv = [](const ThermoSample& t) {
    return std::vector<std::pair<std::string, double>>{
        {"step", static_cast<double>(t.step)},
        {"temperature", t.state.temperature},
        {"pressure", t.state.pressure},
        {"total_energy", t.state.total()},
    };
  };
  if (!result.thermo.empty()) {
    rep.thermo_first = thermo_kv(result.thermo.front());
    rep.thermo_last = thermo_kv(result.thermo.back());
  }
  return rep;
}

}  // namespace lmp::sim
