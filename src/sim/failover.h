#pragma once

// Internal to sim: the seam between one attempt (simulation.cpp) and the
// failover policy that chains attempts (failover.cpp).

#include <cstdint>
#include <memory>
#include <string>

#include "sim/checkpoint.h"
#include "sim/simulation.h"
#include "tofu/fault.h"

namespace lmp::sim {

/// How one attempt ended. Its bookkeeping is already in the job record
/// run_attempt was handed; this is only what the failover policy
/// decides on.
struct AttemptOutcome {
  bool ok = false;
  int fail_step = 0;
  std::string fail_reason;
  /// The attempt fell to a tripped integrity guard (not a comm fault):
  /// the retry policy is rollback-and-recompute on the SAME variant.
  bool integrity = false;
  /// Newest checkpoint this attempt committed (null if none), with the
  /// content checksum recorded at commit (integrity guards only).
  std::shared_ptr<const CheckpointState> last_ckpt;
  std::uint64_t last_ckpt_hash = 0;
};

/// One attempt on one comm variant: run all ranks from
/// `from` (null: a fresh start) to completion or to a collective
/// failure. Hard errors on any rank abort the fabric and poison the
/// world so blocked peers wake promptly; every rank then rendezvouses
/// before tearing down its comm layer (RDMA buffers must stay
/// registered while any peer might still address them).
///
/// On either outcome the attempt adds its checkpoint, guard and fabric
/// counters and its link traffic into `record`; on success it also
/// stores the ranks, thermo, atoms, rank-summed comm health and the
/// commit hook's stop step. The hook reads `record.health` as the job's
/// failover record so far. A genuine bug (not a failover trigger) is
/// rethrown.
AttemptOutcome run_attempt(const SimOptions& options,
                           const std::string& variant,
                           const std::shared_ptr<const CheckpointState>& from,
                           int nsteps, tofu::MemFaultInjector* mem,
                           JobResult& record);

}  // namespace lmp::sim
