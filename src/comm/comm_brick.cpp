#include "comm/comm_brick.h"

#include <stdexcept>

#include "comm/comm_factory.h"
#include "comm/pack_kernels.h"

namespace lmp::comm {

// ---------------------------------------------------------------------
// MpiBrickTransport
// ---------------------------------------------------------------------

void MpiBrickTransport::setup(const CommContext& ctx,
                              std::size_t max_channel_doubles) {
  rank_ = ctx.rank;
  out_.assign(max_channel_doubles, 0.0);
  in_.reserve(max_channel_doubles);
}

std::span<const double> MpiBrickTransport::sendrecv(MsgKind kind, int channel,
                                                    int dst, int src,
                                                    std::size_t n) {
  const int tag = static_cast<int>(kind) * 8 + channel;
  const std::vector<std::byte> raw = world_->sendrecv(
      rank_, dst, src, tag, std::as_bytes(send_buffer().first(n)));
  return land_doubles(raw, in_);
}

// ---------------------------------------------------------------------
// UtofuBrickTransport
// ---------------------------------------------------------------------

void UtofuBrickTransport::setup(const CommContext& ctx,
                                std::size_t max_channel_doubles) {
  ring_doubles_ = max_channel_doubles + 1;  // +1 for the length prefix
  utofu_ = std::make_unique<tofu::UtofuContext>(*net_, ctx.rank);

  // Coarse-grained layout (Sec. 3.2): one VCQ on TNI 0 per rank.
  const tofu::VcqId vcq = utofu_->create_vcq(/*tni=*/0, /*cq=*/0);
  dispatcher_ = NoticeDispatcher(net_, vcq);

  RankAddresses& mine = book_->mine(ctx.rank);
  mine.vcq[0] = vcq;
  mine.ring_bytes = ring_doubles_ * sizeof(double);

  send_buf_ = utofu_->make_buffer(mine.ring_bytes);
  for (int c = 0; c < 6; ++c) {
    for (int s = 0; s < kRingSlots; ++s) {
      rings_[c][static_cast<std::size_t>(s)] = utofu_->make_buffer(mine.ring_bytes);
      // Brick uses only 6 channels; store them in the first 6 ring rows.
      mine.ring[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)] =
          rings_[c][static_cast<std::size_t>(s)].stadd();
    }
  }
}

std::span<const double> UtofuBrickTransport::sendrecv(MsgKind kind,
                                                      int channel, int dst,
                                                      int src, std::size_t n) {
  (void)src;  // the incoming channel id identifies the partner

  // Message combine (Sec. 3.5.1): the payload already sits behind the
  // first double, which carries its length, so the receiver never needs
  // a separate size message.
  send_buf_.as_doubles()[0] = static_cast<double>(n);

  const int slot = ring_next_[static_cast<std::size_t>(channel)]++ % kRingSlots;
  const RankAddresses& peer = book_->of(dst);
  const Edata ed{kind, channel, slot, static_cast<std::uint32_t>(n)};
  net_->put(dispatcher_.vcq(), peer.vcq[0], send_buf_.stadd(), 0,
            peer.ring[static_cast<std::size_t>(channel)][static_cast<std::size_t>(slot)],
            0, (n + 1) * sizeof(double), ed.encode());
  dispatcher_.drain_tcq();

  const Edata in = dispatcher_.wait(kind, channel);
  const double* ring =
      rings_[channel][static_cast<std::size_t>(in.slot)].as_doubles();
  const auto count = static_cast<std::size_t>(ring[0]);
  if (count != in.value) {
    throw std::logic_error("length prefix disagrees with descriptor");
  }
  return {ring + 1, count};
}

// ---------------------------------------------------------------------
// CommBrick
// ---------------------------------------------------------------------

CommBrick::CommBrick(const CommContext& ctx,
                     std::unique_ptr<BrickTransport> transport)
    : Comm(ctx), transport_(std::move(transport)) {}

void CommBrick::setup() {
  plan_ = GhostPlan::staged(ctx_);
  transport_->setup(ctx_, plan_.max_payload_doubles());
}

void CommBrick::borders() {
  md::Atoms& atoms = *ctx_.atoms;
  atoms.clear_ghosts();

  int scan_end = 0;
  for (int c = 0; c < 6; ++c) {
    // Both swaps of a dimension scan the atom set present before that
    // dimension's first swap (LAMMPS nlast discipline): the -side ghosts
    // must not bounce straight back on the +side swap.
    if (side_of(c) == 0) scan_end = atoms.ntotal();
    plan_.select_staged(c, atoms, scan_end);

    const std::size_t n = pack_border(atoms, plan_.send_list(c), plan_.shift(c),
                                      transport_->send_buffer());
    const std::span<const double> in = transport_->sendrecv(
        MsgKind::kBorder, c, plan_.send_peer(c), plan_.recv_peer(c), n);
    account(counters_, MsgKind::kBorder, n);

    const int start = atoms.ntotal();
    const int added = unpack_border(atoms, in);
    plan_.set_ghost_block(c, start, added);
  }
}

void CommBrick::forward_positions() {
  double* x = ctx_.atoms->x();
  for (int c = 0; c < 6; ++c) {
    const std::size_t n = pack_positions(x, plan_.send_list(c), plan_.shift(c),
                                         transport_->send_buffer());
    const std::span<const double> in = transport_->sendrecv(
        MsgKind::kForward, c, plan_.send_peer(c), plan_.recv_peer(c), n);
    account(counters_, MsgKind::kForward, n);
    check_forward_count(c, in.size(), plan_.ghost_count(c));
    unpack_positions(x, plan_.ghost_start(c), in);
  }
}

void CommBrick::reverse_forces() {
  double* f = ctx_.atoms->f();
  // Walk the stages backwards so edge/corner contributions cascade home.
  // Roles swap in reverse: I send my ghost forces to the rank I
  // *received* ghosts from.
  for (int c = 5; c >= 0; --c) {
    const std::size_t n = pack_block(
        {f + 3 * plan_.ghost_start(c),
         static_cast<std::size_t>(3) * plan_.ghost_count(c)},
        transport_->send_buffer());
    const std::span<const double> in = transport_->sendrecv(
        MsgKind::kReverse, c, plan_.recv_peer(c), plan_.send_peer(c), n);
    account(counters_, MsgKind::kReverse, n);
    add_forces(f, plan_.send_list(c), in);
  }
}

void CommBrick::forward(double* per_atom) {
  for (int c = 0; c < 6; ++c) {
    const std::size_t n =
        pack_scalar(per_atom, plan_.send_list(c), transport_->send_buffer());
    const std::span<const double> in = transport_->sendrecv(
        MsgKind::kScalarFwd, c, plan_.send_peer(c), plan_.recv_peer(c), n);
    account(counters_, MsgKind::kScalarFwd, n);
    unpack_scalar(per_atom, plan_.ghost_start(c), in);
  }
}

void CommBrick::reverse_add(double* per_atom) {
  for (int c = 5; c >= 0; --c) {
    const std::size_t n = pack_block(
        {per_atom + plan_.ghost_start(c),
         static_cast<std::size_t>(plan_.ghost_count(c))},
        transport_->send_buffer());
    const std::span<const double> in = transport_->sendrecv(
        MsgKind::kScalarRev, c, plan_.recv_peer(c), plan_.send_peer(c), n);
    account(counters_, MsgKind::kScalarRev, n);
    add_scalar(per_atom, plan_.send_list(c), in);
  }
}

void CommBrick::exchange() {
  md::Atoms& atoms = *ctx_.atoms;
  if (atoms.nghost() != 0) {
    throw std::logic_error("exchange requires ghosts to be cleared");
  }

  // Wrap all owned atoms into the global periodic box first.
  for (int i = 0; i < atoms.nlocal(); ++i) {
    atoms.set_pos(i, ctx_.global.wrap(atoms.pos(i)));
  }

  // LAMMPS exchange discipline: after the periodic wrap, atom
  // coordinates are global, so a leaver is simply broadcast to both dim
  // neighbors and each receiver keeps the atoms that fall inside its own
  // dim slab. An atom that moved farther than one sub-box between
  // rebuilds would be lost — same constraint (and error) as LAMMPS.
  for (int d = 0; d < 3; ++d) {
    const int nprocs_d = ctx_.decomp->grid()[static_cast<std::size_t>(d)];
    if (nprocs_d == 1) continue;  // wrap already restored ownership

    const double lo = ctx_.sub.lo[static_cast<std::size_t>(d)];
    const double hi = ctx_.sub.hi[static_cast<std::size_t>(d)];
    const std::vector<int>& gone = plan_.migrants_along(atoms, d);
    // Coordinates are already global (wrapped), so no shift applies.
    const std::size_t n =
        pack_exchange(atoms, gone, util::Vec3{}, transport_->send_buffer());
    atoms.remove_locals(gone);

    // With 2 ranks in this dim both neighbors are the same rank: send
    // once (LAMMPS special-cases this identically). Otherwise the same
    // packed payload goes to both: sendrecv leaves the send buffer as it
    // was.
    const int nsends = nprocs_d == 2 ? 1 : 2;
    for (int s = 0; s < nsends; ++s) {
      const int c = 2 * d + s;
      const std::span<const double> in = transport_->sendrecv(
          MsgKind::kExchange, c, plan_.send_peer(c), plan_.recv_peer(c), n);
      account(counters_, MsgKind::kExchange, n);
      unpack_exchange_slab(atoms, in, d, lo, hi);
    }
  }
}

// --- factory registration ----------------------------------------------
// All-26-sides brick ghosts require the coordinate tie-break half rule.

namespace {

const CommRegistrar kRefRegistrar{{
    "ref",
    "baseline LAMMPS 3-stage over MPI",
    md::HalfRule::kCoordTieBreak,
    [](const CommBuildInputs& in) {
      CommInstance out;
      out.comm = std::make_unique<CommBrick>(
          in.ctx, std::make_unique<MpiBrickTransport>(*in.world));
      return out;
    },
}};

const CommRegistrar kUtofu3StageRegistrar{{
    "utofu_3stage",
    "3-stage pattern over uTofu one-sided puts",
    md::HalfRule::kCoordTieBreak,
    [](const CommBuildInputs& in) {
      CommInstance out;
      out.comm = std::make_unique<CommBrick>(
          in.ctx, std::make_unique<UtofuBrickTransport>(*in.net, *in.book));
      return out;
    },
}};

}  // namespace

}  // namespace lmp::comm
