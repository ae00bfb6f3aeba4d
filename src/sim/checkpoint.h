#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/box.h"
#include "sim/simulation.h"
#include "util/vec3.h"

namespace lmp::sim {

/// On-disk format version, carried by the file's header frame. Bumped
/// whenever the frame layout changes; readers reject any other value
/// instead of guessing. Version 2 made the file a sequence of
/// comm/msg_codec.h frames, version 3 added rebuild positions.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Everything needed to resume a run bitwise-identically: per-rank owned
/// atoms (no ghosts — they are rebuilt), box/geometry, the RNG seed (the
/// t=0 velocity draw is the only RNG consumer, so the seed IS the stream
/// state), the step counter, the thermo series so far, and the comm
/// variant that was active when the checkpoint was cut.
struct CheckpointState {
  int step = 0;
  int checkpoint_every = 0;  ///< emission schedule; a record restart ignores
  std::string comm_variant;
  std::uint64_t seed = 0;
  util::Int3 cells{0, 0, 0};
  util::Int3 rank_grid{0, 0, 0};
  long natoms = 0;
  geom::Box box{{0, 0, 0}, {0, 0, 0}};
  /// Owned atoms per rank, in each rank's local order at checkpoint time.
  std::vector<std::vector<AtomState>> rank_atoms;
  /// With that order, the neighbor epoch's replay key: each atom's
  /// position at the epoch's rebuild. Missing or empty means "pos".
  std::vector<std::vector<util::Vec3>> rank_rebuild_pos;
  std::vector<ThermoSample> thermo;  ///< global series up to `step`
};

/// 64-bit content checksum over a checkpoint's physics payload (per-rank
/// atom and rebuild-position arrays, then step/thermo), computed with the
/// sim/integrity xxhash-style mixer. Recorded when an in-memory rollback
/// target is committed and re-verified before the attempt loop reuses
/// it, so a bit flip that lands in the parked rollback state itself is
/// detected instead of silently recomputed from corrupt data. (Not
/// serialized: every on-disk frame already carries a CRC-32.)
std::uint64_t checkpoint_content_hash(const CheckpointState& st);

/// Best-effort keep-last-K rotation for on-disk checkpoints written as
/// `prefix.<step>`: removes the oldest files (by step number) beyond the
/// newest `keep`. `keep <= 0` disables pruning. In-flight `.tmp` files
/// and unrelated names are never touched; I/O errors are swallowed (a
/// failed cleanup must not fail the run). Returns files removed.
int prune_checkpoints(const std::string& prefix, int keep);

/// Writes `st` to `path` atomically and durably as CRC-32 frames
/// (comm/msg_codec.h): a header carrying kCheckpointVersion, the meta
/// frame (step, schedule, seed, geometry, comm variant), one atoms frame
/// per rank in rank order, and the thermo frame. The file is serialized
/// to `path + ".tmp"`, fsynced, renamed over the destination, and the
/// parent directory fsynced (util::write_file_durable) — a crash or
/// power loss mid-write never leaves a truncated file under the final
/// name, and a published checkpoint survives the machine dying. Throws
/// std::runtime_error on any I/O failure, and std::length_error if one
/// rank's atoms or the thermo series exceed comm::kMaxFramePayload.
void write_checkpoint(const std::string& path, const CheckpointState& st);

/// Reads and validates a checkpoint: every frame's magic and CRC, the
/// frame order, the version, payload bounds, and end of file after the
/// thermo frame. Declared counts are checked against the bytes that
/// could back them before anything is sized by them. Throws
/// std::runtime_error naming the path and frame index on truncation,
/// corruption, or a file that is not a checkpoint.
CheckpointState read_checkpoint(const std::string& path);

}  // namespace lmp::sim
