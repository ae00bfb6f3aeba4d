#include "comm/ghost_plan.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lmp::comm {

namespace {

/// THE periodic-shift computation: the shift a payload crossing from
/// `me` toward `me + offset` must add so its coordinates land in the
/// receiver's frame. Wraps once around the torus in each axis.
util::Vec3 periodic_shift(const geom::Decomposition& decomp,
                          const util::Int3& me, const util::Int3& offset,
                          const util::Vec3& extent) {
  util::Vec3 shift;
  for (int axis = 0; axis < 3; ++axis) {
    const int c = me[static_cast<std::size_t>(axis)] +
                  offset[static_cast<std::size_t>(axis)];
    if (c < 0) {
      shift[static_cast<std::size_t>(axis)] = extent[static_cast<std::size_t>(axis)];
    } else if (c >= decomp.grid()[static_cast<std::size_t>(axis)]) {
      shift[static_cast<std::size_t>(axis)] = -extent[static_cast<std::size_t>(axis)];
    }
  }
  return shift;
}

void check_thickness(const geom::Box& sub, double rc, const char* scheme) {
  const util::Vec3 e = sub.extent();
  for (int axis = 0; axis < 3; ++axis) {
    if (e[static_cast<std::size_t>(axis)] < rc) {
      throw std::invalid_argument(
          std::string("sub-box thinner than the ghost cutoff: single-shell ") +
          scheme + " comm cannot cover the stencil");
    }
  }
}

}  // namespace

GhostPlan GhostPlan::staged(const CommContext& ctx) {
  GhostPlan plan;
  plan.scheme_ = Scheme::kStaged;
  plan.sub_ = ctx.sub;
  plan.global_ = ctx.global;
  plan.rc_ = ctx.ghost_cutoff;
  check_thickness(plan.sub_, plan.rc_, "3-stage");

  const auto& decomp = *ctx.decomp;
  const util::Int3 me = decomp.coord_of(ctx.rank);
  const util::Vec3 extent = ctx.global.extent();
  plan.ch_.resize(6);
  for (int c = 0; c < 6; ++c) {
    const int d = c / 2;
    const int step = c % 2 == 0 ? -1 : +1;
    util::Int3 off{0, 0, 0};
    off[static_cast<std::size_t>(d)] = step;
    util::Int3 to = me;
    to[static_cast<std::size_t>(d)] += step;
    util::Int3 from = me;
    from[static_cast<std::size_t>(d)] -= step;
    Channel& ch = plan.ch_[static_cast<std::size_t>(c)];
    ch.send_peer = decomp.rank_of(to);
    ch.recv_peer = decomp.rank_of(from);
    ch.shift = periodic_shift(decomp, me, off, extent);
    plan.send_channels_.push_back(c);
    plan.recv_channels_.push_back(c);
  }

  // Upper bound for one channel: the widest slab is the z stage, which
  // carries the x- and y-ghosts too: (ex+2rc)(ey+2rc)*rc atoms' worth.
  const util::Vec3 sub = ctx.sub.extent();
  const double rc = ctx.ghost_cutoff;
  const double slab = (sub.x + 2 * rc) * (sub.y + 2 * rc) * rc;
  plan.max_channel_atoms_ =
      static_cast<std::size_t>(slab * ctx.density * 2.0) + 64;
  plan.max_payload_doubles_ = plan.max_channel_atoms_ * 8;
  return plan;
}

GhostPlan GhostPlan::p2p(const CommContext& ctx, bool use_border_bins) {
  GhostPlan plan;
  plan.scheme_ = Scheme::kP2p;
  plan.sub_ = ctx.sub;
  plan.global_ = ctx.global;
  plan.rc_ = ctx.ghost_cutoff;
  check_thickness(plan.sub_, plan.rc_, "p2p");

  const auto& decomp = *ctx.decomp;
  const util::Int3 me = decomp.coord_of(ctx.rank);
  const util::Vec3 extent = ctx.global.extent();
  const auto& dirs = all_dirs();
  plan.ch_.resize(kNumDirs);
  for (int d = 0; d < kNumDirs; ++d) {
    // Newton on halves the exchange (Fig. 5): ghosts travel only to the
    // lower 13 neighbors and arrive only from the upper 13.
    if (!ctx.newton || !is_upper(d)) plan.send_channels_.push_back(d);
    if (!ctx.newton || is_upper(d)) plan.recv_channels_.push_back(d);
    const util::Int3 o = dirs[static_cast<std::size_t>(d)];
    Channel& ch = plan.ch_[static_cast<std::size_t>(d)];
    ch.send_peer = decomp.rank_of(me + o);
    ch.recv_peer = ch.send_peer;  // channel d receives from the d-neighbor
    ch.shift = periodic_shift(decomp, me, o, extent);
  }

  // Pre-registration bound (Sec. 3.4): the face slab is the largest
  // ghost class; +8 doubles of framing margin for ring transports.
  const util::Vec3 sub = ctx.sub.extent();
  const double rc = ctx.ghost_cutoff;
  const double face_vol =
      std::max({sub.x * sub.y, sub.y * sub.z, sub.x * sub.z}) * rc;
  plan.max_channel_atoms_ =
      static_cast<std::size_t>(face_vol * ctx.density * 2.0) + 64;
  plan.max_payload_doubles_ = plan.max_channel_atoms_ * 8 + 8;

  if (use_border_bins) plan.bins_.emplace(ctx.sub, rc, plan.send_channels_);
  return plan;
}

void GhostPlan::select_staged(int ch, const md::Atoms& atoms, int scan_end) {
  Channel& c = ch_[static_cast<std::size_t>(ch)];
  c.sendlist.clear();
  const int d = ch / 2;
  const double* x = atoms.x();
  if (ch % 2 == 0) {
    const double bound = sub_.lo[static_cast<std::size_t>(d)] + rc_;
    for (int i = 0; i < scan_end; ++i) {
      if (x[3 * i + d] < bound) c.sendlist.push_back(i);
    }
  } else {
    const double bound = sub_.hi[static_cast<std::size_t>(d)] - rc_;
    for (int i = 0; i < scan_end; ++i) {
      if (x[3 * i + d] > bound) c.sendlist.push_back(i);
    }
  }
}

void GhostPlan::build_send_lists(const md::Atoms& atoms) {
  for (const int d : send_channels_) {
    ch_[static_cast<std::size_t>(d)].sendlist.clear();
  }
  const int n = atoms.nlocal();
  if (bins_) {
    for (int i = 0; i < n; ++i) {
      for (const int d : bins_->targets(atoms.pos(i))) {
        ch_[static_cast<std::size_t>(d)].sendlist.push_back(i);
      }
    }
    return;
  }
  for (int i = 0; i < n; ++i) {
    const util::Vec3 p = atoms.pos(i);
    for (const int d : send_channels_) {
      if (BorderBins::in_slab(sub_, rc_, d, p)) {
        ch_[static_cast<std::size_t>(d)].sendlist.push_back(i);
      }
    }
  }
}

int GhostPlan::axis_offset(const double* x, int i, int axis) const {
  const double v = x[3 * i + axis];
  if (v < sub_.lo[static_cast<std::size_t>(axis)]) return -1;
  if (v >= sub_.hi[static_cast<std::size_t>(axis)]) return +1;
  return 0;
}

const std::vector<int>& GhostPlan::migrants_along(const md::Atoms& atoms,
                                                  int axis) {
  std::vector<int>& gone = migrants_.gone;
  gone.clear();
  const double* x = atoms.x();
  for (int i = 0; i < atoms.nlocal(); ++i) {
    if (axis_offset(x, i, axis) != 0) gone.push_back(i);
  }
  return gone;
}

const MigrationPlan& GhostPlan::classify_migrants(const md::Atoms& atoms) {
  MigrationPlan& mig = migrants_;
  mig.gone.clear();
  for (auto& list : mig.by_dir) list.clear();
  const double* x = atoms.x();
  for (int i = 0; i < atoms.nlocal(); ++i) {
    util::Int3 off{0, 0, 0};
    for (int axis = 0; axis < 3; ++axis) {
      off[static_cast<std::size_t>(axis)] = axis_offset(x, i, axis);
    }
    if (off == util::Int3{0, 0, 0}) continue;
    // A leaver beyond the adjacent sub-box would be unreachable by
    // single-shell exchange — LAMMPS calls this a lost atom; here it
    // cannot happen while rebuilds respect the skin.
    mig.by_dir[static_cast<std::size_t>(dir_index(off))].push_back(i);
    mig.gone.push_back(i);
  }
  return mig;
}

void account(CommCounters& counters, MsgKind kind,
             std::size_t payload_doubles) {
  switch (kind) {
    case MsgKind::kBorder:
      counters.border_msgs += 1;
      break;
    case MsgKind::kForward:
      counters.forward_msgs += 1;
      break;
    case MsgKind::kReverse:
      counters.reverse_msgs += 1;
      break;
    case MsgKind::kScalarFwd:
    case MsgKind::kScalarRev:
      counters.scalar_msgs += 1;
      break;
    case MsgKind::kExchange:
      counters.exchange_msgs += 1;
      break;
    default:
      return;  // acks / control piggybacks carry no payload
  }
  counters.bytes += payload_doubles * sizeof(double);
}

}  // namespace lmp::comm
