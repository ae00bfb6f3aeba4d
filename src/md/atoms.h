#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.h"

namespace lmp::md {

using util::Vec3;

/// Structure-of-arrays atom storage for one rank: `nlocal` owned atoms
/// followed by `nghost` ghost copies, exactly as LAMMPS lays them out
/// (paper Fig. 9 relies on this: ghost positions live at a fixed offset
/// `recv_ptr` inside the contiguous position array, so remote ranks can
/// RDMA-write straight into it).
///
/// Positions/velocities/forces are interleaved xyz triples so that a
/// ghost block is one contiguous byte range — the unit of RDMA transfer.
///
/// Capacity discipline: `reserve_capacity` sizes the arrays once (the
/// pre-registration optimization registers them with the NIC afterwards);
/// growth beyond capacity throws rather than silently reallocating, which
/// would invalidate the registered STADDs.
class Atoms {
 public:
  Atoms() = default;

  /// Size all arrays for at most `max_atoms` atoms (local + ghost).
  /// May only grow. Existing contents are preserved.
  void reserve_capacity(int max_atoms);
  int capacity() const { return capacity_; }

  int nlocal() const { return nlocal_; }
  int nghost() const { return nghost_; }
  int ntotal() const { return nlocal_ + nghost_; }

  /// Append an owned atom. Ghosts must not exist yet (they follow locals).
  void add_local(const Vec3& pos, const Vec3& vel, std::int64_t tag);

  /// Remove owned atoms by index (sorted ascending, unique). Ghosts must
  /// already be cleared. Remaining atoms are compacted preserving order.
  void remove_locals(std::span<const int> sorted_indices);

  /// Drop all ghost atoms (start of a border rebuild).
  void clear_ghosts();

  /// Append one ghost atom; returns its index. Velocity is not stored for
  /// ghosts (never needed by the paper's potentials).
  int add_ghost(const Vec3& pos, std::int64_t tag);

  // --- per-atom accessors ---------------------------------------------
  Vec3 pos(int i) const { return {x_[3 * i], x_[3 * i + 1], x_[3 * i + 2]}; }
  void set_pos(int i, const Vec3& p) {
    x_[3 * i] = p.x;
    x_[3 * i + 1] = p.y;
    x_[3 * i + 2] = p.z;
  }
  Vec3 vel(int i) const { return {v_[3 * i], v_[3 * i + 1], v_[3 * i + 2]}; }
  void set_vel(int i, const Vec3& p) {
    v_[3 * i] = p.x;
    v_[3 * i + 1] = p.y;
    v_[3 * i + 2] = p.z;
  }
  Vec3 force(int i) const { return {f_[3 * i], f_[3 * i + 1], f_[3 * i + 2]}; }
  std::int64_t tag(int i) const { return tag_[i]; }

  /// Raw arrays (length 3*capacity). The comm layer registers these with
  /// the simulated NIC and packs/unpacks directly.
  double* x() { return x_.data(); }
  const double* x() const { return x_.data(); }
  double* v() { return v_.data(); }
  const double* v() const { return v_.data(); }
  double* f() { return f_.data(); }
  const double* f() const { return f_.data(); }
  std::int64_t* tags() { return tag_.data(); }

  std::size_t array_bytes() const { return x_.size() * sizeof(double); }

  void zero_forces();

  /// Sum of force triples over owned atoms (diagnostics; should be ~0 for
  /// a periodic system after reverse communication).
  Vec3 net_force() const;

 private:
  void check_capacity(int needed) const;

  int capacity_ = 0;
  int nlocal_ = 0;
  int nghost_ = 0;
  std::vector<double> x_;
  std::vector<double> v_;
  std::vector<double> f_;
  std::vector<std::int64_t> tag_;
};

}  // namespace lmp::md
