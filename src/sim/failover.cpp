// The failover policy: validate the options, then chain attempts
// (simulation.cpp runs one) — roll back to the last checkpoint and retry
// the same variant after a transient corruption verdict, or walk the
// degradation ladder after a comm failure.

#include "sim/failover.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "comm/comm_factory.h"
#include "comm/health_monitor.h"
#include "obs/tracer.h"

namespace lmp::sim {

JobResult run_simulation(const SimOptions& opt, int nsteps) {

  if (opt.executor != "barrier" && opt.executor != "async") {
    throw std::runtime_error("unknown executor '" + opt.executor +
                             "' (expected 'barrier' or 'async')");
  }
  if (opt.executor_threads < 1) {
    throw std::runtime_error("executor_threads must be >= 1");
  }
  if (opt.integrity.cadence < 0) {
    throw std::runtime_error("integrity cadence must be >= 0");
  }
  if (opt.integrity.enabled() &&
      (opt.integrity.energy_tol <= 0 || opt.integrity.momentum_tol <= 0 ||
       opt.integrity.max_rollbacks < 0)) {
    throw std::runtime_error("integrity tolerances must be > 0 and "
                             "max_rollbacks >= 0");
  }
  if (opt.checkpoint_keep < 0) {
    throw std::runtime_error("checkpoint_keep must be >= 0");
  }

  // The transient-flip fire history must survive the rollback attempts:
  // one injector outlives every JobShared this call builds.
  std::shared_ptr<tofu::MemFaultInjector> mem;
  if (opt.faults.memory_faults()) {
    mem = std::make_shared<tofu::MemFaultInjector>(opt.faults);
  }

  // Resolve every variant the run might touch up front, so an unknown
  // name fails on the calling thread with the full catalog — not three
  // failovers deep inside a rank thread.
  comm::CommFactory::instance().at(opt.comm);
  const std::vector<std::string> chain = comm::resolve_failover_chain(
      opt.comm, opt.failover_chain.empty() ? comm::default_failover_chain()
                                           : opt.failover_chain);
  for (const std::string& v : chain) comm::CommFactory::instance().at(v);

  std::shared_ptr<const CheckpointState> resume;
  if (!opt.restart_file.empty()) {
    resume =
        std::make_shared<CheckpointState>(read_checkpoint(opt.restart_file));
  }

  const int max_failovers = opt.max_failovers < 0
                                ? static_cast<int>(chain.size()) - 1
                                : opt.max_failovers;

  JobResult res;  // the job record every attempt adds into
  res.restart_step = resume ? resume->step : 0;  // rollbacks move `resume`
  JobHealth& health = res.health;
  std::uint64_t resume_hash = 0;
  int last_detect_step = -1;

  std::size_t idx = 0;
  for (;;) {
    const std::string& variant = chain[idx];
    const AttemptOutcome at =
        run_attempt(opt, variant, resume, nsteps, mem.get(), res);
    if (at.ok) {
      res.final_comm = variant;
      if (mem) {
        health.mem_flips_injected =
            mem->stats().flips_injected.load(std::memory_order_relaxed);
      }
      return res;
    }

    if (at.integrity) {
      // Corruption verdict: the fabric is fine — roll back to the last
      // guarded checkpoint and recompute on the SAME variant. The
      // trajectory is deterministic, so a recompute that trips at the
      // same step again means the fault is stuck in place, not a
      // one-off flip: escalate to a structured terminal error instead
      // of looping forever (or worse, emitting a corrupt trajectory).
      if (at.fail_step == last_detect_step) {
        throw IntegrityError(
            at.fail_step,
            "persistent corruption: recompute diverged again at step " +
                std::to_string(at.fail_step) + " (" + at.fail_reason + ")");
      }
      if (health.integrity_rollbacks >=
          static_cast<std::uint64_t>(opt.integrity.max_rollbacks)) {
        throw IntegrityError(
            at.fail_step, "integrity rollback budget (" +
                              std::to_string(opt.integrity.max_rollbacks) +
                              ") exhausted at step " +
                              std::to_string(at.fail_step) + " (" +
                              at.fail_reason + ")");
      }
      // Re-verify the rollback target's content checksum before reuse:
      // recomputing from silently corrupted parked state would launder
      // the corruption into a "clean" trajectory.
      std::shared_ptr<const CheckpointState> target =
          at.last_ckpt ? at.last_ckpt : resume;
      const std::uint64_t want =
          at.last_ckpt ? at.last_ckpt_hash : resume_hash;
      if (target && want != 0 && checkpoint_content_hash(*target) != want) {
        throw IntegrityError(
            at.fail_step,
            "rollback checkpoint of step " + std::to_string(target->step) +
                " failed its content checksum — parked state corrupted");
      }
      resume = std::move(target);
      resume_hash = want;
      last_detect_step = at.fail_step;
      ++health.integrity_detections;
      ++health.integrity_rollbacks;
      health.integrity_events.push_back(
          {at.fail_step, resume ? resume->step : 0, at.fail_reason,
           "transient"});
      LMP_TRACE_INSTANT(obs::TraceCat::kCkpt, "integrity.rollback");
      continue;  // same variant — this was not the comm layer's fault
    }

    // Roll back to the newest snapshot this attempt produced; without
    // one, resume stays at the previous rollback point (or a fresh
    // start when there has never been a checkpoint).
    if (at.last_ckpt) {
      resume = at.last_ckpt;
      resume_hash = at.last_ckpt_hash;
    }
    if (idx + 1 >= chain.size() ||
        static_cast<int>(health.escalations.size()) >= max_failovers) {
      throw std::runtime_error("failover chain exhausted at variant '" +
                               variant + "': " + at.fail_reason);
    }
    LMP_TRACE_INSTANT(obs::TraceCat::kCkpt, "failover.escalate");
    health.escalations.push_back({at.fail_step, resume ? resume->step : 0,
                                  variant, chain[idx + 1], at.fail_reason});
    ++idx;
  }
}

}  // namespace lmp::sim
