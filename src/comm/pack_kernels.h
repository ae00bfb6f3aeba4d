#pragma once

#include <cstddef>
#include <span>

#include "md/atoms.h"
#include "util/vec3.h"

namespace lmp::comm {

/// SoA pack/unpack kernels shared by every comm variant. Each payload
/// format is defined exactly once here, so the `x[3*i] + shift` loop and
/// its siblings cannot drift apart between transports:
///
///   border:   shifted position + tag        (4 doubles / atom)
///   forward:  shifted position              (3 doubles / atom)
///   scalar:   one per-atom double           (EAM rho / fp mid-pair comm)
///   exchange: position + velocity + tag     (7 doubles / atom)
///   block:    a contiguous ghost block      (reverse forces / scalars)
///
/// Every pack writes into `out`, the transport's own outgoing storage:
/// the registered RDMA send buffer of the uTofu drivers, the reused send
/// buffer of the two-sided ones. Nothing is allocated per message. The
/// kernels are also the one place the Sec. 3.4 buffer bound is checked:
/// a payload larger than `out` throws std::length_error, naming the
/// format and both sizes, before a single double is written.

inline constexpr int kBorderDoubles = 4;
inline constexpr int kPositionDoubles = 3;
inline constexpr int kExchangeDoubles = 7;

// --- pack: each returns the doubles written ----------------------------

std::size_t pack_border(const md::Atoms& atoms, std::span<const int> list,
                        const util::Vec3& shift, std::span<double> out);
std::size_t pack_positions(const double* x, std::span<const int> list,
                           const util::Vec3& shift, std::span<double> out);
std::size_t pack_scalar(const double* per_atom, std::span<const int> list,
                        std::span<double> out);
std::size_t pack_exchange(const md::Atoms& atoms, std::span<const int> list,
                          const util::Vec3& shift, std::span<double> out);
/// Copy a contiguous ghost block (the reverse paths' payload) into `out`.
std::size_t pack_block(std::span<const double> block, std::span<double> out);

// --- unpack ------------------------------------------------------------

/// Append the border payload as ghost atoms; returns ghosts added.
int unpack_border(md::Atoms& atoms, std::span<const double> in);

/// Overwrite the ghost block starting at `ghost_start` with forwarded
/// positions.
void unpack_positions(double* x, int ghost_start, std::span<const double> in);

/// Overwrite the per-atom scalar ghost block starting at `ghost_start`.
void unpack_scalar(double* per_atom, int ghost_start,
                   std::span<const double> in);

/// Append every migrated atom in the payload as a local; returns atoms
/// added.
int unpack_exchange(md::Atoms& atoms, std::span<const double> in);

/// Staged-exchange variant: keep only the records whose coordinate on
/// `axis` falls in [lo, hi) — the other broadcast copy lands the rest.
int unpack_exchange_slab(md::Atoms& atoms, std::span<const double> in,
                         int axis, double lo, double hi);

// --- reverse accumulation ----------------------------------------------

/// Add returned ghost forces onto the owners named by the send list.
/// Throws std::logic_error if the payload length does not match.
void add_forces(double* f, std::span<const int> list,
                std::span<const double> in);

/// Same for a per-atom scalar (EAM rho reverse-add).
void add_scalar(double* per_atom, std::span<const int> list,
                std::span<const double> in);

}  // namespace lmp::comm
