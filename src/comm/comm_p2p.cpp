#include "comm/comm_p2p.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "comm/comm_factory.h"
#include "comm/msg_codec.h"
#include "comm/pack_kernels.h"
#include "geom/ghost_algebra.h"
#include "obs/tracer.h"

namespace lmp::comm {

CommP2p::CommP2p(const CommContext& ctx, tofu::Network& net, AddressBook& book,
                 const P2pOptions& options, pool::SpinThreadPool* pool)
    : Comm(ctx), net_(&net), book_(&book), opt_(options), pool_(pool) {
  if (opt_.ntnis < 1 || opt_.ntnis > 6) {
    throw std::invalid_argument("ntnis must be in [1, 6]");
  }
  if (opt_.comm_threads < 1 || opt_.comm_threads > 6) {
    throw std::invalid_argument("comm_threads must be in [1, 6]");
  }
  if (opt_.comm_threads > 1) {
    if (opt_.comm_threads != opt_.ntnis) {
      throw std::invalid_argument(
          "fine-grained mode drives one TNI per thread: comm_threads must "
          "equal ntnis");
    }
    if (pool_ == nullptr || pool_->nthreads() < opt_.comm_threads) {
      throw std::invalid_argument("fine-grained mode needs a big-enough pool");
    }
  }
}

CommP2p::~CommP2p() {
  stop_progress_.store(true, std::memory_order_release);
  if (progress_.joinable()) progress_.join();
}

void CommP2p::setup() {
  // The transport-invariant half: channels, peers, shifts, bins, bounds.
  plan_ = GhostPlan::p2p(ctx_, opt_.use_border_bins);

  // Direction -> VCQ/thread slot map. Must be identical on every rank so
  // senders can target the receiving thread's VCQ.
  const util::Vec3 sub = ctx_.sub.extent();
  if (opt_.comm_threads > 1 && opt_.balanced_assignment) {
    // Estimated per-class costs from the ghost algebra of Table 1.
    const double a = std::min({sub.x, sub.y, sub.z});
    const double r = ctx_.ghost_cutoff;
    std::vector<CommTask> tasks;
    tasks.reserve(kNumDirs);
    for (int d = 0; d < kNumDirs; ++d) {
      const int order = dir_order(d);
      const double vol = order == 1 ? a * a * r : (order == 2 ? a * r * r : r * r * r);
      tasks.push_back({d, vol * ctx_.density * 24.0, order});
    }
    const std::vector<int> assign = balance_tasks(tasks, opt_.comm_threads);
    for (int d = 0; d < kNumDirs; ++d) {
      slot_of_dir_[static_cast<std::size_t>(d)] = assign[static_cast<std::size_t>(d)];
    }
  } else {
    const int nslots = opt_.comm_threads > 1 ? opt_.comm_threads : opt_.ntnis;
    for (int d = 0; d < kNumDirs; ++d) {
      slot_of_dir_[static_cast<std::size_t>(d)] = d % nslots;
    }
  }

  // VCQs: one per *logical* TNI slot. Normally slot t lives on TNI t,
  // CQ row 0 (each rank owns its own row in the per-node CQ matrix of
  // Fig. 7; the functional network gives each rank a private TNI
  // namespace so the rows are always free). When the fault plan marks
  // TNIs down, the logical slots re-stripe round-robin across the
  // survivors, moving to higher CQ rows on reuse so hardware CQs stay
  // exclusive — comm_threads and the direction map are untouched, the
  // traffic just shares fewer physical TNIs.
  const tofu::FaultInjector* inj = net_->fault_injector();
  std::vector<int> alive;
  for (int t = 0; t < opt_.ntnis; ++t) {
    if (inj == nullptr || !inj->tni_down(t)) alive.push_back(t);
  }
  if (alive.empty()) {
    throw std::runtime_error(
        "all TNIs of this variant are marked down — cannot re-stripe");
  }
  tnis_in_use_ = static_cast<int>(alive.size());

  utofu_ = std::make_unique<tofu::UtofuContext>(*net_, ctx_.rank);
  RankAddresses& mine = book_->mine(ctx_.rank);
  dispatch_.resize(static_cast<std::size_t>(opt_.ntnis));
  for (int t = 0; t < opt_.ntnis; ++t) {
    const int phys = alive[static_cast<std::size_t>(t % tnis_in_use_)];
    const int row = t / tnis_in_use_;
    vcq_[static_cast<std::size_t>(t)] = utofu_->create_vcq(phys, row);
    mine.vcq[static_cast<std::size_t>(t)] = vcq_[static_cast<std::size_t>(t)];
    dispatch_[static_cast<std::size_t>(t)] =
        NoticeDispatcher(net_, vcq_[static_cast<std::size_t>(t)]);
  }

  // Pre-registered buffers (Sec. 3.4): rings sized from the plan's
  // theoretical ghost upper bound — the face slab is the largest class.
  ring_doubles_ = plan_.max_payload_doubles();
  mine.ring_bytes = ring_doubles_ * sizeof(double);
  for (int d = 0; d < kNumDirs; ++d) {
    dir_[static_cast<std::size_t>(d)].send_buf = utofu_->make_buffer(mine.ring_bytes);
    for (int s = 0; s < kRingSlots; ++s) {
      rings_[static_cast<std::size_t>(d)][static_cast<std::size_t>(s)] =
          utofu_->make_buffer(mine.ring_bytes);
      mine.ring[static_cast<std::size_t>(d)][static_cast<std::size_t>(s)] =
          rings_[static_cast<std::size_t>(d)][static_cast<std::size_t>(s)].stadd();
    }
  }

  // One-time registration of the position and force arrays themselves —
  // forward puts land directly in x, reverse puts read directly from f.
  md::Atoms& atoms = *ctx_.atoms;
  if (atoms.capacity() == 0) {
    throw std::logic_error("atoms capacity must be reserved before comm setup");
  }
  mine.x_stadd = net_->reg_mem(ctx_.rank, atoms.x(), atoms.array_bytes());
  mine.f_stadd = net_->reg_mem(ctx_.rank, atoms.f(), atoms.array_bytes());

  // Arm the reliability protocol only for fault-injected runs: clean
  // runs keep the zero-overhead fast path (no CRC, no pending copies,
  // no progress thread).
  reliable_ = inj != nullptr && inj->enabled();
  if (reliable_) {
    for (int t = 0; t < opt_.ntnis; ++t) {
      dispatch_[static_cast<std::size_t>(t)].enable_reliability(
          [this](MsgKind kind, int dir) { send_nack(kind, dir); },
          opt_.reliability);
    }
    stop_progress_.store(false, std::memory_order_release);
    progress_ = std::thread([this] { progress_loop(); });
  }
}

template <class Fn>
void CommP2p::for_dirs(const std::vector<int>& dirs, const Fn& fn) {
  if (opt_.comm_threads == 1) {
    for (const int d : dirs) fn(d);
    return;
  }
  const auto body = [&](int t) {
    if (t >= opt_.comm_threads) return;
    for (const int d : dirs) {
      if (slot_of_dir_[static_cast<std::size_t>(d)] == t) fn(d);
    }
  };
  // std::function stores a reference_wrapper inline: no allocation.
  pool_->parallel_static(std::cref(body));
}

// --- reliability protocol ---------------------------------------------

void CommP2p::record_pending(MsgKind kind, int dir, bool piggyback,
                             const void* payload, std::uint64_t bytes,
                             int peer, int my_slot, int peer_slot,
                             tofu::Stadd dst_stadd, std::uint64_t dst_off,
                             std::uint64_t edata, std::uint64_t flow) {
  std::lock_guard lock(pending_mu_);
  PendingSend& p =
      pending_[static_cast<std::size_t>(kind)][static_cast<std::size_t>(dir)]
              [Edata::decode(edata).seq & 1U];
  p.valid = true;
  p.piggyback = piggyback;
  p.edata = edata;
  p.flow = flow;
  p.peer = peer;
  p.my_slot = my_slot;
  p.peer_slot = peer_slot;
  p.dst_stadd = dst_stadd;
  p.dst_off = dst_off;
  p.length = bytes;
  if (!piggyback) {
    if (!p.copy.valid() || p.copy.size() < bytes) {
      p.copy = utofu_->make_buffer(std::max<std::size_t>(bytes, 64));
    }
    if (bytes > 0) std::memcpy(p.copy.data(), payload, bytes);
  }
}

void CommP2p::send_nack(MsgKind kind, int dir) {
  const int sender_dir = opposite(dir);
  const int my_slot = slot_of_dir_[static_cast<std::size_t>(dir)];
  const std::uint8_t want =
      dispatch_[static_cast<std::size_t>(my_slot)].expected_seq(kind, dir);
  const RankAddresses& peer = book_->of(plan_.recv_peer(dir));
  // The NACK names the *sender's* channel (their direction index) plus
  // the kind and the sequence number we are missing, packed into value.
  const Edata ed{MsgKind::kRetransmitReq, sender_dir, 0,
                 static_cast<std::uint32_t>(kind) |
                     (static_cast<std::uint32_t>(want) << 8)};
  net_->put_piggyback(
      vcq_[static_cast<std::size_t>(my_slot)],
      peer.vcq[static_cast<std::size_t>(slot_of_dir_[static_cast<std::size_t>(sender_dir)])],
      ed.encode(), tofu::PutMode::kControl);
  nacks_sent_.fetch_add(1, std::memory_order_relaxed);
  LMP_TRACE_INSTANT(obs::TraceCat::kComm, "nack.sent");
}

void CommP2p::serve_retransmit(MsgKind kind, std::uint8_t seq, int dir) {
  if (static_cast<int>(kind) < 0 || static_cast<int>(kind) >= kKindCount ||
      dir < 0 || dir >= kNumDirs) {
    return;
  }
  std::lock_guard lock(pending_mu_);
  const PendingSend& p =
      pending_[static_cast<std::size_t>(kind)][static_cast<std::size_t>(dir)]
              [seq & 1U];
  // Serve only the exact message the receiver is missing: if the channel
  // has already advanced two past it (stale NACK) or the message was
  // never sent yet (early NACK), ignore — the receiver re-NACKs with
  // backoff. This is what makes late replays harmless: a replay is only
  // ever issued while the original is one of the channel's two latest
  // messages, so it rewrites bytes identical to those already delivered.
  if (!p.valid || Edata::decode(p.edata).seq != seq) {
    return;
  }
  retransmits_served_.fetch_add(1, std::memory_order_relaxed);
  LMP_TRACE_INSTANT(obs::TraceCat::kComm, "retransmit.served");
  const RankAddresses& peer = book_->of(p.peer);
  // The replay carries the original flow id: in the trace, the NACKed
  // message and its retransmit read as one flow with several segments.
  if (p.piggyback) {
    net_->put_piggyback(vcq_[static_cast<std::size_t>(p.my_slot)],
                        peer.vcq[static_cast<std::size_t>(p.peer_slot)],
                        p.edata, tofu::PutMode::kRetransmit, p.flow);
  } else {
    net_->put(vcq_[static_cast<std::size_t>(p.my_slot)],
              peer.vcq[static_cast<std::size_t>(p.peer_slot)], p.copy.stadd(),
              0, p.dst_stadd, p.dst_off, p.length, p.edata,
              tofu::PutMode::kRetransmit, p.flow);
  }
}

void CommP2p::progress_loop() {
  // The per-rank progress engine (the software stand-in for an A64FX
  // assistant core): services retransmit requests on every owned VCQ so
  // a sender blocked elsewhere — or already past its last wait — still
  // answers NACKs.
  LMP_TRACE_THREAD(ctx_.rank, 100, "progress");
  while (!stop_progress_.load(std::memory_order_acquire)) {
    bool served = false;
    try {
      for (int t = 0; t < opt_.ntnis; ++t) {
        while (auto n = net_->poll_control(vcq_[static_cast<std::size_t>(t)])) {
          const Edata e = Edata::decode(n->edata);
          if (e.kind == MsgKind::kRetransmitReq) {
            serve_retransmit(static_cast<MsgKind>(e.value & 0xFF),
                             static_cast<std::uint8_t>((e.value >> 8) & 0xFF),
                             e.dir);
            served = true;
          }
        }
      }
    } catch (const std::exception&) {
      // Permanent fault or fabric abort mid-retransmit: the progress
      // engine cannot help any more. The owner thread hits the same
      // condition on its next wait and escalates through the failover
      // path; letting the exception fly here would std::terminate.
      return;
    }
    if (!served) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

Edata CommP2p::wait_ring(MsgKind kind, int dir) {
  const int slot = slot_of_dir_[static_cast<std::size_t>(dir)];
  for (;;) {
    const Edata e = dispatch_[static_cast<std::size_t>(slot)].wait(kind, dir);
    if (!reliable_) return e;
    const double* ring =
        rings_[static_cast<std::size_t>(dir)][static_cast<std::size_t>(e.slot)]
            .as_doubles();
    if (e.crc == payload_crc(e.value, ring, e.value * sizeof(double))) return e;
    crc_rejects_.fetch_add(1, std::memory_order_relaxed);
    LMP_TRACE_INSTANT(obs::TraceCat::kComm, "crc.rejected");
    dispatch_[static_cast<std::size_t>(slot)].accept_retransmit(kind, dir,
                                                                e.seq);
    send_nack(kind, dir);
  }
}

Edata CommP2p::wait_piggyback(MsgKind kind, int dir) {
  const int slot = slot_of_dir_[static_cast<std::size_t>(dir)];
  for (;;) {
    const Edata e = dispatch_[static_cast<std::size_t>(slot)].wait(kind, dir);
    if (!reliable_ || e.crc == payload_crc(e.value, nullptr, 0)) return e;
    crc_rejects_.fetch_add(1, std::memory_order_relaxed);
    LMP_TRACE_INSTANT(obs::TraceCat::kComm, "crc.rejected");
    dispatch_[static_cast<std::size_t>(slot)].accept_retransmit(kind, dir,
                                                                e.seq);
    send_nack(kind, dir);
  }
}

CommHealthReport CommP2p::health() const {
  CommHealthReport h;
  h.nacks_sent = nacks_sent_.load(std::memory_order_relaxed);
  h.retransmits_served = retransmits_served_.load(std::memory_order_relaxed);
  h.crc_rejects = crc_rejects_.load(std::memory_order_relaxed);
  for (const auto& d : dispatch_) {
    h.duplicates_dropped +=
        d.counters().duplicates_dropped.load(std::memory_order_relaxed);
  }
  h.tnis_in_use = tnis_in_use_;
  h.tnis_down = opt_.ntnis - tnis_in_use_;
  return h;
}

// --- data path ---------------------------------------------------------

void CommP2p::check_fits(std::size_t ndoubles) const {
  if (ndoubles > ring_doubles_) {
    throw std::length_error("p2p payload exceeds pre-registered ring size");
  }
}

void CommP2p::send_ring(MsgKind kind, int dir, std::size_t ndoubles) {
  DirState& st = dir_[static_cast<std::size_t>(dir)];
  const int tag = opposite(dir);  // the receiver's view of this channel
  const int slot = st.ring_slot_out++ % kRingSlots;
  const int my_slot = slot_of_dir_[static_cast<std::size_t>(dir)];
  const int peer_slot = slot_of_dir_[static_cast<std::size_t>(tag)];
  const int peer_rank = plan_.send_peer(dir);
  const RankAddresses& peer = book_->of(peer_rank);
  const std::uint64_t bytes = ndoubles * sizeof(double);
  const double* buf = st.send_buf.as_doubles();
  Edata ed{kind, tag, slot, static_cast<std::uint32_t>(ndoubles)};
  const std::uint64_t flow = next_flow();
  if (reliable_) {
    ed.seq = next_seq(kind, dir);
    ed.crc = payload_crc(ed.value, buf, bytes);
    record_pending(kind, dir, false, buf, bytes, peer_rank, my_slot,
                   peer_slot,
                   peer.ring[static_cast<std::size_t>(tag)][static_cast<std::size_t>(slot)],
                   0, ed.encode(), flow);
  }
  net_->put(vcq_[static_cast<std::size_t>(my_slot)],
            peer.vcq[static_cast<std::size_t>(peer_slot)],
            st.send_buf.stadd(), 0,
            peer.ring[static_cast<std::size_t>(tag)][static_cast<std::size_t>(slot)], 0,
            bytes, ed.encode(), tofu::PutMode::kData, flow);
  dispatch_[static_cast<std::size_t>(my_slot)].drain_tcq();
}

void CommP2p::put_payload(MsgKind kind, int dir, std::span<const double> payload) {
  check_fits(payload.size());
  DirState& st = dir_[static_cast<std::size_t>(dir)];
  std::copy(payload.begin(), payload.end(), st.send_buf.as_doubles());
  send_ring(kind, dir, payload.size());
}

std::span<const double> CommP2p::wait_payload(MsgKind kind, int dir,
                                              std::uint32_t* count) {
  const Edata e = wait_ring(kind, dir);
  if (count != nullptr) *count = e.value;
  const double* ring =
      rings_[static_cast<std::size_t>(dir)][static_cast<std::size_t>(e.slot)]
          .as_doubles();
  return {ring, static_cast<std::size_t>(e.value)};
}

void CommP2p::borders() {
  md::Atoms& atoms = *ctx_.atoms;
  atoms.clear_ghosts();
  plan_.build_send_lists(atoms);

  // Phase A (parallel): pack straight into the registered send buffers
  // and put. Counters are settled serially afterwards — the payload
  // sizes are fully determined by the send lists.
  for_dirs(plan_.send_channels(), [&](int d) {
    const std::vector<int>& list = plan_.send_list(d);
    check_fits(list.size() * kBorderDoubles);
    DirState& st = dir_[static_cast<std::size_t>(d)];
    const std::size_t n = [&] {
      const obs::TraceSpan pack_span(obs::TraceCat::kComm, "pack.border");
      return pack_border(atoms, list, plan_.shift(d), st.send_buf.as_doubles());
    }();
    send_ring(MsgKind::kBorder, d, n);
  });
  for (const int d : plan_.send_channels()) {
    account(counters_, MsgKind::kBorder,
            plan_.send_list(d).size() * kBorderDoubles);
  }

  // Phase B (parallel): learn each incoming count. The ring slot to read
  // later is stashed by re-waiting below, so just collect counts first.
  std::array<std::pair<std::uint32_t, int>, kNumDirs> incoming{};  // count, slot
  for_dirs(plan_.recv_channels(), [&](int u) {
    const Edata e = wait_ring(MsgKind::kBorder, u);
    incoming[static_cast<std::size_t>(u)] = {e.value, e.slot};
  });

  // Phase C (serial): place ghosts in deterministic direction order so
  // every comm implementation yields identical ghost indexing.
  for (const int u : plan_.recv_channels()) {
    const auto [raw, slot] = incoming[static_cast<std::size_t>(u)];
    const double* ring =
        rings_[static_cast<std::size_t>(u)][static_cast<std::size_t>(slot)].as_doubles();
    const int start = atoms.ntotal();
    const int n = unpack_border(
        atoms, std::span<const double>(ring, static_cast<std::size_t>(raw)));
    plan_.set_ghost_block(u, start, n);
  }

  // Phase D (parallel): piggyback the ghost offsets back (Sec. 3.4 —
  // "the receiver informs the sender of the offset of ghost atoms ...
  // only an 8B value, so we use the piggyback mechanism").
  for_dirs(plan_.recv_channels(), [&](int u) {
    const int tag = opposite(u);
    const int my_slot = slot_of_dir_[static_cast<std::size_t>(u)];
    const int peer_slot = slot_of_dir_[static_cast<std::size_t>(tag)];
    const int peer_rank = plan_.recv_peer(u);
    const RankAddresses& peer = book_->of(peer_rank);
    Edata ed{MsgKind::kBorderAck, tag, 0,
             static_cast<std::uint32_t>(plan_.ghost_start(u))};
    const std::uint64_t flow = next_flow();
    if (reliable_) {
      ed.seq = next_seq(MsgKind::kBorderAck, u);
      ed.crc = payload_crc(ed.value, nullptr, 0);
      record_pending(MsgKind::kBorderAck, u, true, nullptr, 0, peer_rank,
                     my_slot, peer_slot, 0, 0, ed.encode(), flow);
    }
    net_->put_piggyback(vcq_[static_cast<std::size_t>(my_slot)],
                        peer.vcq[static_cast<std::size_t>(peer_slot)],
                        ed.encode(), tofu::PutMode::kData, flow);
    dispatch_[static_cast<std::size_t>(my_slot)].drain_tcq();
  });
  for_dirs(plan_.send_channels(), [&](int d) {
    const Edata e = wait_piggyback(MsgKind::kBorderAck, d);
    dir_[static_cast<std::size_t>(d)].remote_offset = e.value;
  });
}

void CommP2p::forward_positions() {
  forward_begin();
  for_dirs(plan_.recv_channels(), [&](int u) { complete_forward_dir(u); });
}

void CommP2p::forward_begin() {
  md::Atoms& atoms = *ctx_.atoms;

  // Direct writes into the peer's position array are only safe when the
  // reverse stage paces the sender: with Newton's law on, a rank cannot
  // issue its next forward until it has received this step's ghost
  // forces, which the peer only sends after its pair stage has finished
  // reading the ghost positions. Without Newton there is no reverse
  // flow, so a fast neighbor's step-(n+1) forward could overwrite ghost
  // positions mid-pair-stage — those messages must go through the
  // round-robin rings instead (at most 2 in flight per direction, well
  // under the 4-slot depth).
  if (!ctx_.newton) {
    double* x = atoms.x();
    for_dirs(plan_.send_channels(), [&](int d) {
      const std::vector<int>& list = plan_.send_list(d);
      check_fits(list.size() * kPositionDoubles);
      DirState& st = dir_[static_cast<std::size_t>(d)];
      const std::size_t n = [&] {
        const obs::TraceSpan pack_span(obs::TraceCat::kComm, "pack.forward");
        return pack_positions(x, list, plan_.shift(d), st.send_buf.as_doubles());
      }();
      send_ring(MsgKind::kForward, d, n);
    });
    for (const int d : plan_.send_channels()) {
      account(counters_, MsgKind::kForward,
              plan_.send_list(d).size() * kPositionDoubles);
    }
    return;
  }

  for_dirs(plan_.send_channels(), [&](int d) {
    const std::vector<int>& list = plan_.send_list(d);
    check_fits(list.size() * kPositionDoubles);
    DirState& st = dir_[static_cast<std::size_t>(d)];
    // Pack shifted positions, then write them *directly* into the peer's
    // position array at the acked ghost offset (Fig. 9a) — no receive
    // buffer, no unpack on the far side.
    double* out = st.send_buf.as_doubles();
    const std::size_t w = [&] {
      const obs::TraceSpan pack_span(obs::TraceCat::kComm, "pack.forward");
      return pack_positions(atoms.x(), list, plan_.shift(d), out);
    }();
    const int tag = opposite(d);
    const int my_slot = slot_of_dir_[static_cast<std::size_t>(d)];
    const int peer_slot = slot_of_dir_[static_cast<std::size_t>(tag)];
    const int peer_rank = plan_.send_peer(d);
    const RankAddresses& peer = book_->of(peer_rank);
    const std::uint64_t bytes = w * sizeof(double);
    const std::uint64_t dst_off =
        static_cast<std::uint64_t>(st.remote_offset) * 3 * sizeof(double);
    Edata ed{MsgKind::kForward, tag, 0,
             static_cast<std::uint32_t>(list.size())};
    const std::uint64_t flow = next_flow();
    if (reliable_) {
      ed.seq = next_seq(MsgKind::kForward, d);
      ed.crc = payload_crc(ed.value, out, bytes);
      record_pending(MsgKind::kForward, d, false, out, bytes, peer_rank,
                     my_slot, peer_slot, peer.x_stadd, dst_off, ed.encode(),
                     flow);
    }
    net_->put(vcq_[static_cast<std::size_t>(my_slot)],
              peer.vcq[static_cast<std::size_t>(peer_slot)],
              st.send_buf.stadd(), 0, peer.x_stadd, dst_off, bytes,
              ed.encode(), tofu::PutMode::kData, flow);
    dispatch_[static_cast<std::size_t>(my_slot)].drain_tcq();
  });
  for (const int d : plan_.send_channels()) {
    account(counters_, MsgKind::kForward,
            plan_.send_list(d).size() * kPositionDoubles);
  }
}

void CommP2p::complete_forward_dir(int u) {
  md::Atoms& atoms = *ctx_.atoms;

  if (!ctx_.newton) {
    std::uint32_t n = 0;
    const std::span<const double> in = wait_payload(MsgKind::kForward, u, &n);
    if (static_cast<int>(n) != plan_.ghost_count(u) * 3) {
      throw std::logic_error("forward ghost count changed since borders()");
    }
    unpack_positions(atoms.x(), plan_.ghost_start(u), in);
    return;
  }

  // The data lands in place; we only consume the arrival notice — but
  // under fault injection the landed bytes are CRC-verified against the
  // descriptor before the pair stage may read them.
  const int slot = slot_of_dir_[static_cast<std::size_t>(u)];
  for (;;) {
    const Edata e =
        dispatch_[static_cast<std::size_t>(slot)].wait(MsgKind::kForward, u);
    if (reliable_) {
      const double* region = atoms.x() + 3 * plan_.ghost_start(u);
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(e.value) * 3 * sizeof(double);
      if (e.crc != payload_crc(e.value, region, bytes)) {
        crc_rejects_.fetch_add(1, std::memory_order_relaxed);
        dispatch_[static_cast<std::size_t>(slot)].accept_retransmit(
            MsgKind::kForward, u, e.seq);
        send_nack(MsgKind::kForward, u);
        continue;
      }
    }
    if (static_cast<int>(e.value) != plan_.ghost_count(u)) {
      throw std::logic_error("forward ghost count changed since borders()");
    }
    break;
  }
}

void CommP2p::forward_complete(int ch) { complete_forward_dir(ch); }

void CommP2p::reverse_forces() {
  if (!ctx_.newton) return;  // full lists never accumulate ghost forces
  md::Atoms& atoms = *ctx_.atoms;
  const RankAddresses& mine = book_->of(ctx_.rank);

  // Send: the ghost block of the force array is contiguous, so the put
  // reads straight out of the registered array — zero-copy (Fig. 9b).
  for_dirs(plan_.recv_channels(), [&](int u) {
    DirState& st = dir_[static_cast<std::size_t>(u)];
    const int ghost_start = plan_.ghost_start(u);
    const int ghost_count = plan_.ghost_count(u);
    const int tag = opposite(u);
    const int slot = st.ring_slot_out++ % kRingSlots;
    const int my_slot = slot_of_dir_[static_cast<std::size_t>(u)];
    const int peer_slot = slot_of_dir_[static_cast<std::size_t>(tag)];
    const int peer_rank = plan_.recv_peer(u);
    const RankAddresses& peer = book_->of(peer_rank);
    const auto bytes = static_cast<std::uint64_t>(ghost_count) * 3 * sizeof(double);
    const std::uint64_t src_off =
        static_cast<std::uint64_t>(ghost_start) * 3 * sizeof(double);
    Edata ed{MsgKind::kReverse, tag, slot,
             static_cast<std::uint32_t>(ghost_count * 3)};
    const std::uint64_t flow = next_flow();
    if (reliable_) {
      ed.seq = next_seq(MsgKind::kReverse, u);
      ed.crc = payload_crc(ed.value, atoms.f() + 3 * ghost_start, bytes);
      record_pending(MsgKind::kReverse, u, false,
                     atoms.f() + 3 * ghost_start, bytes, peer_rank, my_slot,
                     peer_slot,
                     peer.ring[static_cast<std::size_t>(tag)][static_cast<std::size_t>(slot)],
                     0, ed.encode(), flow);
    }
    net_->put(vcq_[static_cast<std::size_t>(my_slot)],
              peer.vcq[static_cast<std::size_t>(peer_slot)],
              mine.f_stadd, src_off,
              peer.ring[static_cast<std::size_t>(tag)][static_cast<std::size_t>(slot)], 0,
              bytes, ed.encode(), tofu::PutMode::kData, flow);
    dispatch_[static_cast<std::size_t>(my_slot)].drain_tcq();
  });
  for (const int u : plan_.recv_channels()) {
    account(counters_, MsgKind::kReverse,
            static_cast<std::size_t>(plan_.ghost_count(u)) * 3);
  }

  // Receive: unpack-add into the atoms we sent out as ghosts. Send
  // lists of different directions overlap on edge/corner owners, so
  // with several comm threads the adds must not land in timing order —
  // float addition does not commute bitwise. Phase A settles each
  // payload into its per-direction staging copy in parallel; Phase B
  // accumulates serially in canonical channel order. Single-threaded
  // comm keeps the zero-copy inline add.
  double* f = atoms.f();
  if (opt_.comm_threads == 1) {
    for_dirs(plan_.send_channels(), [&](int d) {
      std::uint32_t n = 0;
      const std::span<const double> in = wait_payload(MsgKind::kReverse, d, &n);
      add_forces(f, plan_.send_list(d), in);
    });
    return;
  }
  for_dirs(plan_.send_channels(), [&](int d) {
    std::uint32_t n = 0;
    const std::span<const double> in = wait_payload(MsgKind::kReverse, d, &n);
    reverse_stage_[static_cast<std::size_t>(d)].assign(in.begin(), in.end());
  });
  for (const int d : plan_.send_channels()) {
    add_forces(f, plan_.send_list(d),
               reverse_stage_[static_cast<std::size_t>(d)]);
  }
}

void CommP2p::forward(double* per_atom) {
  for_dirs(plan_.send_channels(), [&](int d) {
    const std::vector<int>& list = plan_.send_list(d);
    check_fits(list.size());
    DirState& st = dir_[static_cast<std::size_t>(d)];
    const std::size_t n = [&] {
      const obs::TraceSpan pack_span(obs::TraceCat::kComm, "pack.scalar");
      return pack_scalar(per_atom, list, st.send_buf.as_doubles());
    }();
    send_ring(MsgKind::kScalarFwd, d, n);
  });
  for (const int d : plan_.send_channels()) {
    account(counters_, MsgKind::kScalarFwd, plan_.send_list(d).size());
  }
  for_dirs(plan_.recv_channels(), [&](int u) {
    std::uint32_t n = 0;
    const std::span<const double> in = wait_payload(MsgKind::kScalarFwd, u, &n);
    if (static_cast<int>(n) != plan_.ghost_count(u)) {
      throw std::logic_error("scalar forward count mismatch");
    }
    unpack_scalar(per_atom, plan_.ghost_start(u), in);
  });
}

void CommP2p::reverse_add(double* per_atom) {
  if (!ctx_.newton) return;
  for_dirs(plan_.recv_channels(), [&](int u) {
    const std::span<const double> payload(
        per_atom + plan_.ghost_start(u),
        static_cast<std::size_t>(plan_.ghost_count(u)));
    put_payload(MsgKind::kScalarRev, u, payload);
  });
  for (const int u : plan_.recv_channels()) {
    account(counters_, MsgKind::kScalarRev,
            static_cast<std::size_t>(plan_.ghost_count(u)));
  }
  // Same stage-then-settle discipline as reverse_forces: canonical-order
  // accumulation keeps the EAM rho sums bitwise reproducible under
  // multi-threaded comm.
  if (opt_.comm_threads == 1) {
    for_dirs(plan_.send_channels(), [&](int d) {
      std::uint32_t n = 0;
      const std::span<const double> in =
          wait_payload(MsgKind::kScalarRev, d, &n);
      add_scalar(per_atom, plan_.send_list(d), in);
    });
    return;
  }
  for_dirs(plan_.send_channels(), [&](int d) {
    std::uint32_t n = 0;
    const std::span<const double> in = wait_payload(MsgKind::kScalarRev, d, &n);
    reverse_stage_[static_cast<std::size_t>(d)].assign(in.begin(), in.end());
  });
  for (const int d : plan_.send_channels()) {
    add_scalar(per_atom, plan_.send_list(d),
               reverse_stage_[static_cast<std::size_t>(d)]);
  }
}

void CommP2p::exchange() {
  md::Atoms& atoms = *ctx_.atoms;
  if (atoms.nghost() != 0) {
    throw std::logic_error("exchange requires ghosts to be cleared");
  }

  // Classify leavers by destination direction on the *raw* coordinates
  // (plan): the direction offset identifies the owner and the channel's
  // periodic shift maps the coordinate into the owner's box, so no
  // global wrap is needed (and the single-target send requires none).
  const MigrationPlan mig = plan_.classify_migrants(atoms);

  // All 26 channels fire every rebuild (possibly empty) so the expected
  // message counts stay deterministic. Pack before remove_locals — the
  // migration indices refer to the pre-removal atom array.
  static const std::vector<int> all26 = [] {
    std::vector<int> v(kNumDirs);
    for (int d = 0; d < kNumDirs; ++d) v[static_cast<std::size_t>(d)] = d;
    return v;
  }();
  for_dirs(all26, [&](int d) {
    const std::vector<int>& leavers = mig.by_dir[static_cast<std::size_t>(d)];
    check_fits(leavers.size() * kExchangeDoubles);
    DirState& st = dir_[static_cast<std::size_t>(d)];
    const std::size_t n = [&] {
      const obs::TraceSpan pack_span(obs::TraceCat::kComm, "pack.exchange");
      return pack_exchange(atoms, leavers, plan_.shift(d),
                           st.send_buf.as_doubles());
    }();
    send_ring(MsgKind::kExchange, d, n);
  });
  for (const int d : all26) {
    account(counters_, MsgKind::kExchange,
            mig.by_dir[static_cast<std::size_t>(d)].size() * kExchangeDoubles);
  }
  atoms.remove_locals(mig.gone);

  // Collect counts in parallel, append serially (deterministic order).
  std::array<std::pair<std::uint32_t, int>, kNumDirs> incoming{};
  for_dirs(all26, [&](int u) {
    const Edata e = wait_ring(MsgKind::kExchange, u);
    incoming[static_cast<std::size_t>(u)] = {e.value, e.slot};
  });
  for (const int u : all26) {
    const auto [raw, slot] = incoming[static_cast<std::size_t>(u)];
    const double* ring =
        rings_[static_cast<std::size_t>(u)][static_cast<std::size_t>(slot)].as_doubles();
    unpack_exchange(
        atoms, std::span<const double>(ring, static_cast<std::size_t>(raw)));
  }
}

// --- factory registration ----------------------------------------------
// The three p2p variants differ only in TNI count and threading; all use
// the half-shell ghost pattern (kAllGhosts).

namespace {

CommInstance build_p2p(const CommBuildInputs& in, int ntnis, int threads) {
  P2pOptions popt;
  popt.ntnis = ntnis;
  popt.comm_threads = threads;
  popt.use_border_bins = in.use_border_bins;
  popt.balanced_assignment = in.balanced_assignment;
  CommInstance out;
  if (threads > 1) {
    out.pool = std::make_unique<pool::SpinThreadPool>(threads);
  }
  out.comm = std::make_unique<CommP2p>(in.ctx, *in.net, *in.book, popt,
                                       out.pool.get());
  return out;
}

const CommRegistrar k4TniRegistrar{{
    "4tni_p2p",
    "coarse p2p: single thread, 4 TNIs (Sec. 3.2)",
    md::HalfRule::kAllGhosts,
    [](const CommBuildInputs& in) { return build_p2p(in, 4, 1); },
}};

const CommRegistrar k6TniRegistrar{{
    "6tni_p2p",
    "coarse p2p: single thread, 6 TNIs",
    md::HalfRule::kAllGhosts,
    [](const CommBuildInputs& in) { return build_p2p(in, 6, 1); },
}};

const CommRegistrar kOptRegistrar{{
    "opt",
    "fine-grained p2p: 6-thread spin pool over 6 TNIs (Sec. 3.3)",
    md::HalfRule::kAllGhosts,
    [](const CommBuildInputs& in) { return build_p2p(in, 6, 6); },
}};

}  // namespace

}  // namespace lmp::comm
