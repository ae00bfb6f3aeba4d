#pragma once

#include <cstdint>
#include <vector>

#include "comm/health_monitor.h"
#include "geom/box.h"
#include "geom/decomposition.h"
#include "md/atoms.h"
#include "md/potential.h"

namespace lmp::comm {

/// Everything a communication implementation needs to know about its
/// rank's place in the world. Owned by the per-rank Simulation.
struct CommContext {
  const geom::Decomposition* decomp = nullptr;
  int rank = 0;
  md::Atoms* atoms = nullptr;
  geom::Box sub;           ///< this rank's sub-box
  geom::Box global;        ///< full periodic box
  double ghost_cutoff = 0; ///< cutoff + skin
  bool newton = true;
  double density = 0;      ///< number density, for buffer upper bounds
};

/// Per-run communication counters (tests and run reports).
struct CommCounters {
  std::uint64_t border_msgs = 0;
  std::uint64_t forward_msgs = 0;
  std::uint64_t reverse_msgs = 0;
  std::uint64_t scalar_msgs = 0;
  std::uint64_t exchange_msgs = 0;
  std::uint64_t bytes = 0;
};

/// Abstract ghost-region communication — one implementation per paper
/// variant (Ref MPI 3-stage, uTofu 3-stage, coarse p2p, fine-grained
/// parallel p2p). The Simulation calls these in the LAMMPS verlet order:
///
///   rebuild step:  exchange() -> borders() -> neighbor build
///   other steps:   forward_positions()
///   after force:   reverse_forces()            (Newton only)
///   mid-EAM:       reverse_add() / forward()   (GhostDataComm)
class Comm : public md::GhostDataComm {
 public:
  explicit Comm(const CommContext& ctx) : ctx_(ctx) {}

  /// Collective setup: size and register buffers, publish addresses.
  /// Must be called once on every rank before any other operation.
  virtual void setup() = 0;

  /// Migrate owned atoms that left the sub-box to their new owners.
  /// Pre-condition: no ghosts present.
  virtual void exchange() = 0;

  /// Rebuild ghost atoms and the send lists (border stage).
  virtual void borders() = 0;

  /// Push updated owner positions into all ghost copies.
  virtual void forward_positions() = 0;

  // --- split forward exchange (asynchronous step runtime) ---------------
  //
  // forward_begin() issues this step's sends, forward_complete(ch)
  // blocks until receive channel `ch`'s ghost block has landed. The step
  // DAG calls forward_begin() first, then overlaps interior force tasks
  // with one forward_complete() per entry of forward_channels(); border
  // tasks reading a direction depend on that direction's completion.
  //
  // Eager implementations (blocking sendrecv loops, where send and
  // receive cannot be separated) keep the defaults: forward_begin() runs
  // the whole exchange and forward_complete() is a no-op, with
  // forward_channels() empty — the DAG then simply gates every border
  // task on the forward node. forward_begin() + forward_complete(ch) for
  // every listed channel must be exactly equivalent to
  // forward_positions(), counters included.

  /// Start the forward exchange (send side; eager default: all of it).
  virtual void forward_begin() { forward_positions(); }

  /// Complete one receive channel started by forward_begin().
  virtual void forward_complete(int /*ch*/) {}

  /// Receive channels forward_complete() must be called for, in the
  /// canonical (serial) completion order. Empty for eager implementations.
  virtual const std::vector<int>& forward_channels() const {
    static const std::vector<int> kNone;
    return kNone;
  }

  /// Exclusivity key for a channel's completion: completions sharing a
  /// key consume the same underlying queue (e.g. one VCQ's dispatcher)
  /// and must not run concurrently — the DAG chains them in
  /// forward_channels() order. Distinct keys may complete in parallel.
  virtual int forward_channel_key(int ch) const { return ch; }

  /// Send forces accumulated on ghosts back to their owners and add them.
  virtual void reverse_forces() = 0;

  const CommCounters& counters() const { return counters_; }
  const CommContext& context() const { return ctx_; }

  /// Reliability/degradation summary for this rank's comm. The default
  /// (all-zero) report is right for implementations without a reliability
  /// layer (reference MPI, plain uTofu brick).
  virtual CommHealthReport health() const { return {}; }

 protected:
  CommContext ctx_;
  CommCounters counters_;
};

}  // namespace lmp::comm
