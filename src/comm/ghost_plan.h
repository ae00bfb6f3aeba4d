#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "comm/border_bins.h"
#include "comm/comm_base.h"
#include "comm/directions.h"
#include "comm/msg_codec.h"
#include "util/vec3.h"

namespace lmp::comm {

/// Leavers of one exchange, classified by destination direction. `gone`
/// is ascending (ready for md::Atoms::remove_locals); `by_dir[d]` holds
/// the subset that migrates to neighbor direction d.
struct MigrationPlan {
  std::vector<int> gone;
  std::array<std::vector<int>, kNumDirs> by_dir;
};

/// The transport-invariant half of ghost communication: which channels
/// exist, who is on their far ends, which periodic shift each applies,
/// which atoms each sends, where received ghosts were placed, and how
/// large any payload can get (the Sec. 3.4 preregistration bound).
///
/// Two schemes cover all paper variants:
///
///   kStaged — the LAMMPS 3-stage pattern: 6 channels (dim*2 + side),
///             border atoms selected by plane sweep against a shrinking
///             slab, later stages re-forwarding earlier stages' ghosts;
///             migration runs one dimension at a time on wrapped
///             coordinates.
///   kP2p    — 26 direct neighbor channels (Newton halves them 13/13),
///             border targets from the border bins of Sec. 3.5.2 (valid
///             on every sub-box at least one cutoff thick); migration
///             classifies raw coordinates straight to the destination
///             direction.
///
/// CommBrick / CommP2pMpi / CommP2p are thin transport drivers over this
/// plan plus the pack_kernels: the periodic-shift setup, border
/// selection, and boundary-coordinate scans each live here exactly once.
class GhostPlan {
 public:
  enum class Scheme { kStaged, kP2p };

  GhostPlan() = default;

  /// Build the 6-channel staged plan. Throws std::invalid_argument when
  /// a sub-box side is thinner than the ghost cutoff.
  static GhostPlan staged(const CommContext& ctx);

  /// Build the 26-channel p2p plan; `use_border_bins` = false selects
  /// border atoms with the per-direction slab scan instead of the bins
  /// (the Sec. 3.5.2 ablation; the send lists are the same).
  static GhostPlan p2p(const CommContext& ctx, bool use_border_bins);

  Scheme scheme() const { return scheme_; }
  int nchannels() const { return static_cast<int>(ch_.size()); }

  /// Channels this rank sends border/forward payloads on (all of them
  /// for staged; the lower 13 under Newton for p2p).
  const std::vector<int>& send_channels() const { return send_channels_; }
  /// Channels this rank receives ghosts on.
  const std::vector<int>& recv_channels() const { return recv_channels_; }

  int send_peer(int ch) const { return ch_[static_cast<std::size_t>(ch)].send_peer; }
  int recv_peer(int ch) const { return ch_[static_cast<std::size_t>(ch)].recv_peer; }
  const util::Vec3& shift(int ch) const { return ch_[static_cast<std::size_t>(ch)].shift; }

  // --- border selection -------------------------------------------------

  /// Staged plane sweep: rebuild channel ch's send list from the atoms in
  /// [0, scan_end) lying within the cutoff slab of its face. The caller
  /// controls scan_end per the LAMMPS nlast discipline (both swaps of a
  /// dimension scan the set present before that dimension's first swap).
  void select_staged(int ch, const md::Atoms& atoms, int scan_end);

  /// P2p target selection: rebuild every send channel's list in one pass
  /// over the local atoms (border bins, or the slab scan ablation). The
  /// lists keep their storage, so a rebuild of a similar atom set
  /// allocates nothing.
  void build_send_lists(const md::Atoms& atoms);

  const std::vector<int>& send_list(int ch) const {
    return ch_[static_cast<std::size_t>(ch)].sendlist;
  }

  // --- ghost bookkeeping ------------------------------------------------

  void set_ghost_block(int ch, int start, int count) {
    ch_[static_cast<std::size_t>(ch)].ghost_start = start;
    ch_[static_cast<std::size_t>(ch)].ghost_count = count;
  }
  int ghost_start(int ch) const { return ch_[static_cast<std::size_t>(ch)].ghost_start; }
  int ghost_count(int ch) const { return ch_[static_cast<std::size_t>(ch)].ghost_count; }

  // --- migration (exchange stage) ---------------------------------------

  /// Staged: ascending indices of owned atoms outside the sub-box along
  /// `axis` (coordinates must already be wrapped into the global box).
  /// Refills plan-owned storage, valid until the next call.
  const std::vector<int>& migrants_along(const md::Atoms& atoms, int axis);

  /// P2p: classify every leaver by destination direction on the raw
  /// coordinates; the channel's periodic shift maps them into the
  /// owner's box. Refills plan-owned storage, valid until the next call.
  const MigrationPlan& classify_migrants(const md::Atoms& atoms);

  // --- buffer upper bounds (Sec. 3.4) -----------------------------------

  /// Theoretical per-channel ghost-atom bound used for preregistration.
  std::size_t max_channel_atoms() const { return max_channel_atoms_; }
  /// Doubles any single payload on any channel may occupy (including the
  /// scheme's framing margin). Transports size rings/buffers from this.
  std::size_t max_payload_doubles() const { return max_payload_doubles_; }

  bool using_border_bins() const { return bins_.has_value(); }

 private:
  struct Channel {
    int send_peer = -1;
    int recv_peer = -1;
    util::Vec3 shift;
    std::vector<int> sendlist;
    int ghost_start = 0;
    int ghost_count = 0;
  };

  /// Offset of one coordinate relative to the sub-box along `axis`:
  /// -1 below lo, +1 at/above hi, 0 inside. The single home of the
  /// boundary-coordinate scan every exchange path uses.
  int axis_offset(const double* x, int i, int axis) const;

  Scheme scheme_ = Scheme::kStaged;
  geom::Box sub_;
  geom::Box global_;
  double rc_ = 0;
  std::vector<Channel> ch_;
  std::vector<int> send_channels_;
  std::vector<int> recv_channels_;
  std::size_t max_channel_atoms_ = 0;
  std::size_t max_payload_doubles_ = 0;
  std::optional<BorderBins> bins_;  ///< p2p with border bins only
  MigrationPlan migrants_;          ///< classify_migrants / migrants_along
};

/// Uniform CommCounters accounting for one sent payload: every variant
/// calls this so bytes/msgs are computed identically (piggyback-only
/// control words do not pass through here and are not counted).
void account(CommCounters& counters, MsgKind kind,
             std::size_t payload_doubles);

}  // namespace lmp::comm
