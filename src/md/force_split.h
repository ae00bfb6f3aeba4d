#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.h"
#include "md/atoms.h"
#include "md/neighbor.h"

namespace lmp::md {

/// Band-mask bit layout for the interior/border force partition: two
/// bits per axis, set when the atom sits within `rc` of that face of the
/// owning sub-box. An atom with mask 0 is *interior*: since the neighbor
/// list admits pairs strictly under rc and every ghost lies at least rc
/// away from the interior band on some axis, an interior atom's rows can
/// never reference a ghost — its force task needs no ghost exchange.
enum BandBit : int {
  kLowX = 1 << 0,
  kHighX = 1 << 1,
  kLowY = 1 << 2,
  kHighY = 1 << 3,
  kLowZ = 1 << 4,
  kHighZ = 1 << 5,
};

/// One force task's atom set: the local atoms sharing a band mask, in
/// ascending local index order (which is ascending build order, so the
/// in-group accumulation order is deterministic).
struct ForceGroup {
  int mask = 0;
  std::vector<int> atoms;
};

/// Comm-scheme-independent partition of the local atoms for the split
/// force path. Groups are held in ascending mask order — that order IS
/// the canonical reduction order both executors use, so the partition
/// (and therefore the arithmetic) is identical across comm variants and
/// executors: it depends only on positions at rebuild, the sub-box, and
/// the neighbor cutoff.
struct ForceGroups {
  std::vector<ForceGroup> groups;  ///< ascending mask; interior first when present
  int nlocal = 0;                  ///< atom count at build time

  /// Classify by position against the sub-box bands of width `rc`
  /// (`rc` = neighbor cutoff = pair cutoff + skin, the same width the
  /// border stage uses to select ghosts). Call at every neighbor
  /// rebuild: group membership must match the epoch's neighbor list.
  static ForceGroups build(const Atoms& atoms, const geom::Box& sub,
                           double rc);

  /// build() in place: reuses the group and scratch storage of earlier
  /// epochs, so a rebuild with a stable partition allocates nothing.
  /// Drops the footprints; rebuild them for the epoch's list.
  void assign(const Atoms& atoms, const geom::Box& sub, double rc);

  /// Compute every group's *footprint*: the ascending distinct local and
  /// ghost indices its rows write in the epoch's `list` — the rows
  /// themselves, plus, on a half list, every partner j with
  /// `newton || j < nlocal`. The split join reduces and re-zeroes only
  /// these entries of each group's private buffer. `ntotal` is the
  /// epoch's local + ghost count. Storage is kept across epochs.
  void build_footprints(const NeighborList& list, bool newton, int ntotal);

  /// Group `g`'s footprint (valid until the next assign/build_footprints).
  std::span<const int> footprint(int g) const {
    const auto gi = static_cast<std::size_t>(g);
    const auto b = static_cast<std::size_t>(fp_offsets_[gi]);
    const auto e = static_cast<std::size_t>(fp_offsets_[gi + 1]);
    return {fp_index_.data() + b, e - b};
  }

  /// True when the footprints were built for a list of this kind, this
  /// newton setting and this atom count — what a split evaluation over
  /// (`list`, `newton`, `ntotal`) requires.
  bool footprints_match(const NeighborList& list, bool newton,
                        int ntotal) const {
    return fp_built_ && fp_full_ == list.full && fp_newton_ == newton &&
           fp_ntotal_ == ntotal;
  }

  int ngroups() const { return static_cast<int>(groups.size()); }

 private:
  std::array<std::vector<int>, 64> buckets_;  ///< assign() scratch, by mask
  std::vector<int> fp_index_;                 ///< footprints, concatenated
  std::vector<int> fp_offsets_;               ///< ngroups + 1 bounds
  std::vector<std::uint64_t> fp_bits_;        ///< one group's marks, by index
  bool fp_built_ = false;
  bool fp_full_ = false;
  bool fp_newton_ = false;
  int fp_ntotal_ = 0;
};

/// The sparse join step for one group: add the group's private buffer
/// into `dst` at every footprint entry (W doubles per atom: 1 for a
/// density, 3 for a force) in ascending index order, and set each entry
/// back to 0.0. Entries outside the footprint are never written, so they
/// stay 0.0 and the buffer is all-zero again afterwards. Skipping them
/// drops only `+0.0` adds, which change no value a sum started at +0.0
/// can reach, so this is bitwise the dense elementwise join.
template <std::size_t W>
inline void drain_footprint(std::span<const int> fp, double* buf,
                            double* dst) {
  for (const int a : fp) {
    const std::size_t k = W * static_cast<std::size_t>(a);
    for (std::size_t c = k; c < k + W; ++c) {
      dst[c] += buf[c];
      buf[c] = 0.0;
    }
  }
}

/// True when a group with band mask `mask` can have neighbor-list rows
/// that reference ghosts imported from the direction (dx, dy, dz),
/// components in {-1, 0, +1}. A ghost on the +x side satisfies
/// x >= sub.hi.x, so a local partner must sit in the high-x band; axes
/// with a zero component impose no constraint. The sim layer uses this
/// to wire border force tasks to the forward-completion task of exactly
/// the directions they read.
bool group_reads_dir(int mask, int dx, int dy, int dz);

}  // namespace lmp::md
