#include "comm/comm_p2p_mpi.h"

#include <stdexcept>

#include "comm/comm_factory.h"
#include "comm/pack_kernels.h"
#include "obs/tracer.h"

namespace lmp::comm {

CommP2pMpi::CommP2pMpi(const CommContext& ctx, minimpi::World& world)
    : Comm(ctx), world_(&world) {}

void CommP2pMpi::setup() {
  plan_ = GhostPlan::p2p(ctx_, /*use_border_bins=*/true);
  send_buf_.assign(plan_.max_payload_doubles(), 0.0);
  recv_buf_.reserve(plan_.max_payload_doubles());
}

void CommP2pMpi::send_payload(MsgKind kind, int dir,
                              std::span<const double> payload) {
  world_->send(ctx_.rank, plan_.send_peer(dir), tag_for(kind, opposite(dir)),
               std::as_bytes(payload));
  account(counters_, kind, payload.size());
}

std::span<const double> CommP2pMpi::recv_payload(MsgKind kind, int dir) {
  const std::vector<std::byte> raw =
      world_->recv(ctx_.rank, plan_.recv_peer(dir), tag_for(kind, dir));
  return land_doubles(raw, recv_buf_);
}

void CommP2pMpi::borders() {
  md::Atoms& atoms = *ctx_.atoms;
  atoms.clear_ghosts();
  {
    const obs::TraceSpan select_span(obs::TraceCat::kComm, "select.border");
    plan_.build_send_lists(atoms);
  }

  for (const int d : plan_.send_channels()) {
    const std::size_t n =
        pack_border(atoms, plan_.send_list(d), plan_.shift(d), send_buf_);
    send_payload(MsgKind::kBorder, d, std::span(send_buf_).first(n));
  }
  for (const int u : plan_.recv_channels()) {
    const int start = atoms.ntotal();
    const int n = unpack_border(atoms, recv_payload(MsgKind::kBorder, u));
    plan_.set_ghost_block(u, start, n);
  }
}

void CommP2pMpi::forward_positions() {
  double* x = ctx_.atoms->x();
  for (const int d : plan_.send_channels()) {
    const std::size_t n =
        pack_positions(x, plan_.send_list(d), plan_.shift(d), send_buf_);
    send_payload(MsgKind::kForward, d, std::span(send_buf_).first(n));
  }
  for (const int u : plan_.recv_channels()) {
    const std::span<const double> in = recv_payload(MsgKind::kForward, u);
    check_forward_count(u, in.size(), plan_.ghost_count(u));
    unpack_positions(x, plan_.ghost_start(u), in);
  }
}

void CommP2pMpi::reverse_forces() {
  if (!ctx_.newton) return;
  double* f = ctx_.atoms->f();
  for (const int u : plan_.recv_channels()) {
    send_payload(MsgKind::kReverse, u,
                 {f + 3 * plan_.ghost_start(u),
                  static_cast<std::size_t>(3) * plan_.ghost_count(u)});
  }
  for (const int d : plan_.send_channels()) {
    add_forces(f, plan_.send_list(d), recv_payload(MsgKind::kReverse, d));
  }
}

void CommP2pMpi::forward(double* per_atom) {
  for (const int d : plan_.send_channels()) {
    const std::size_t n = pack_scalar(per_atom, plan_.send_list(d), send_buf_);
    send_payload(MsgKind::kScalarFwd, d, std::span(send_buf_).first(n));
  }
  for (const int u : plan_.recv_channels()) {
    unpack_scalar(per_atom, plan_.ghost_start(u),
                  recv_payload(MsgKind::kScalarFwd, u));
  }
}

void CommP2pMpi::reverse_add(double* per_atom) {
  if (!ctx_.newton) return;
  for (const int u : plan_.recv_channels()) {
    send_payload(MsgKind::kScalarRev, u,
                 {per_atom + plan_.ghost_start(u),
                  static_cast<std::size_t>(plan_.ghost_count(u))});
  }
  for (const int d : plan_.send_channels()) {
    add_scalar(per_atom, plan_.send_list(d),
               recv_payload(MsgKind::kScalarRev, d));
  }
}

void CommP2pMpi::exchange() {
  md::Atoms& atoms = *ctx_.atoms;
  if (atoms.nghost() != 0) {
    throw std::logic_error("exchange requires ghosts to be cleared");
  }

  // Pack and send every direction before remove_locals: the migration
  // indices refer to the pre-removal atom array.
  const MigrationPlan& mig = plan_.classify_migrants(atoms);
  for (int d = 0; d < kNumDirs; ++d) {
    const std::size_t n =
        pack_exchange(atoms, mig.by_dir[static_cast<std::size_t>(d)],
                      plan_.shift(d), send_buf_);
    send_payload(MsgKind::kExchange, d, std::span(send_buf_).first(n));
  }
  atoms.remove_locals(mig.gone);

  for (int u = 0; u < kNumDirs; ++u) {
    unpack_exchange(atoms, recv_payload(MsgKind::kExchange, u));
  }
}

// --- factory registration ----------------------------------------------
// Half-shell p2p ghosts keep every local-ghost pair.

namespace {

const CommRegistrar kMpiP2pRegistrar{{
    "mpi_p2p",
    "naive p2p over the MPI stack (Fig. 6's cautionary tale)",
    md::HalfRule::kAllGhosts,
    [](const CommBuildInputs& in) {
      CommInstance out;
      out.comm = std::make_unique<CommP2pMpi>(in.ctx, *in.world);
      return out;
    },
}};

}  // namespace

}  // namespace lmp::comm
