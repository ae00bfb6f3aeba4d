#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "comm/address_book.h"
#include "comm/comm_base.h"
#include "comm/directions.h"
#include "comm/dispatcher.h"
#include "comm/ghost_plan.h"
#include "comm/load_balance.h"
#include "threadpool/spin_pool.h"
#include "tofu/utofu.h"

namespace lmp::comm {

/// Configuration of the p2p engine — one instance per paper variant:
///
///   4tni_p2p : ntnis=4, comm_threads=1   (coarse-grained, Sec. 3.2)
///   6tni_p2p : ntnis=6, comm_threads=1   (single thread over 6 TNIs)
///   opt      : ntnis=6, comm_threads=6   (fine-grained pool, Sec. 3.3)
struct P2pOptions {
  int ntnis = 6;
  int comm_threads = 1;
  /// Border-bin target selection (Sec. 3.5.2); falls back to the naive
  /// per-neighbor slab scan when the geometry disallows bins.
  bool use_border_bins = true;
  /// Size/hop-aware thread assignment (Fig. 10) vs plain round-robin.
  bool balanced_assignment = true;
};

/// Peer-to-peer ghost communication over uTofu one-sided primitives —
/// the paper's contribution. Each rank exchanges directly with its 26
/// neighbors (13 each way under Newton's 3rd law, Fig. 5):
///
///   * border:   ghost atoms -> upper-half neighbors; ghost-offset
///               piggyback acks flow back (Sec. 3.4)
///   * forward:  packed positions RDMA-written straight into the
///               receiver's position array at the acked offset (Fig. 9a)
///   * reverse:  ghost forces put zero-copy from the registered force
///               array into the owner's round-robin ring (Fig. 9b)
///   * scalar:   EAM rho reverse-add and fp forward, mid-pair-stage
///   * exchange: migration messages to all 26 neighbors on rebuild steps
///
/// The exchange *plan* (channels, peers, shifts, send lists, migration
/// classification, buffer bounds) lives in the shared GhostPlan; the
/// pack kernels write payloads straight into this driver's registered
/// send buffers (zero-copy RDMA). This class contributes only transport
/// and scheduling: VCQ striping, ring slots, piggyback acks, and the
/// reliability protocol.
///
/// Every data-plane message is one uTofu put with a descriptor, whatever
/// its destination (Sec. 3.4, Fig. 9): a ring slot, the peer's position
/// array, or nothing at all (a piggyback). All of them leave through
/// send() and are taken through receive(), so sequencing, CRC, pending
/// copies, NACKs and trace instants are written once for every kind.
///
/// With comm_threads > 1, directions are assigned to pool threads by the
/// load balancer and each thread drives its own VCQ (one per TNI) —
/// CQ access stays single-threaded, as the hardware requires (Sec. 3.3).
///
/// ## Reliability under fault injection
///
/// When the shared Network carries a FaultInjector, setup() arms a
/// receiver-driven retransmission protocol: every message is stamped
/// with a per-channel sequence number and a CRC-8 over value + payload;
/// a receiver whose wait stalls sends a `kRetransmitReq` control
/// piggyback (exponential backoff) naming the channel and the expected
/// sequence number, and the sender's *progress thread* — the analogue
/// of Fugaku's assistant cores — replays the pending message from a
/// stable registered copy. Duplicates and stale deliveries are filtered
/// by sequence number; corrupted payloads are CRC-rejected and NACKed.
/// Receivers accept each channel strictly in sequence order. A replay is
/// served only while the requested sequence number is one of the
/// channel's two latest messages, so a stale NACK can never resurrect a
/// superseded message; an in-window replay rewrites bytes identical to
/// those already delivered, which is why late replays are harmless.
/// When the injector marks TNIs down, setup() re-stripes the logical VCQ
/// slots across the surviving TNIs (distinct CQ rows keep hardware CQs
/// exclusive). With no injector attached none of this machinery is
/// active: no CRC is computed, no pending copies are kept, and no thread
/// is spawned.
class CommP2p final : public Comm {
 public:
  /// `pool` must outlive this object and have >= options.comm_threads
  /// threads when comm_threads > 1; it may be null for single-threaded
  /// variants.
  CommP2p(const CommContext& ctx, tofu::Network& net, AddressBook& book,
          const P2pOptions& options, pool::SpinThreadPool* pool = nullptr);
  ~CommP2p() override;

  void setup() override;
  void exchange() override;
  void borders() override;
  void forward_positions() override;
  void reverse_forces() override;

  // Split forward exchange: the RDMA puts of forward_begin() land
  // directly in the receiver's arrays, so each receive direction can be
  // completed independently as soon as its notice arrives. Channels on
  // the same VCQ share a dispatcher and report vcq_slot() as their key.
  void forward_begin() override;
  void forward_complete(int ch) override;
  const std::vector<int>& forward_channels() const override {
    return plan_.recv_channels();
  }
  int forward_channel_key(int ch) const override { return vcq_slot(ch); }

  // md::GhostDataComm (EAM mid-pair scalar comm)
  void forward(double* per_atom) override;
  void reverse_add(double* per_atom) override;

  CommHealthReport health() const override;

  const std::vector<int>& send_dirs() const { return plan_.send_channels(); }
  const std::vector<int>& recv_dirs() const { return plan_.recv_channels(); }
  int vcq_slot(int dir) const { return slot_of_dir_[static_cast<std::size_t>(dir)]; }
  bool using_border_bins() const { return plan_.using_border_bins(); }
  /// Distinct physical TNIs carrying traffic after degradation.
  int tnis_in_use() const { return tnis_in_use_; }
  bool reliability_active() const { return reliable_; }

 private:
  /// Per-direction transport state. The exchange-pattern fields (peer,
  /// shift, send list, ghost block) live in the GhostPlan.
  struct DirState {
    std::uint32_t remote_offset = 0;  ///< acked ghost offset at the peer
    int ring_slot_out = 0;        ///< round-robin cursor toward the peer
    tofu::RegisteredBuffer send_buf;
  };

  /// Where a data-plane message lands at the receiver.
  enum class Place : std::uint8_t {
    kRing,       ///< the channel's next round-robin ring slot
    kPositions,  ///< the peer's position array at the acked ghost offset
    kPiggyback,  ///< nowhere: the 8-byte descriptor value is the message
  };

  /// Payload bytes behind descriptor value `value` landing at `at`: ring
  /// values count doubles, in-place position values count atoms.
  static std::uint64_t payload_bytes(Place at, std::uint32_t value) {
    if (at == Place::kPiggyback) return 0;
    return std::uint64_t{value} * (at == Place::kPositions ? 3 : 1) *
           sizeof(double);
  }

  /// Registered source of a put: (stadd, off) for the fabric, `data` the
  /// host view of the same bytes for the CRC and the pending copy.
  struct Src {
    tofu::Stadd stadd = 0;
    std::uint64_t off = 0;
    const double* data = nullptr;
  };

  /// Everything a put needs besides its source bytes. send() builds one
  /// per message and issues the put from it; under reliability the same
  /// record becomes the pending entry a replay is issued from.
  struct PutDesc {
    std::uint64_t edata = 0;      ///< full encoded descriptor word
    int peer = -1;
    int my_slot = 0;              ///< vcq_ index the original went out on
    int peer_slot = 0;            ///< peer vcq index it targeted
    bool piggyback = false;
    tofu::Stadd dst_stadd = 0;
    std::uint64_t dst_off = 0;
    std::uint64_t length = 0;     ///< payload bytes
    std::uint64_t flow = 0;       ///< trace flow id — replays chain onto it
  };

  /// Sender-side replay state for one message of a (kind, direction)
  /// channel, with its payload captured in a registered copy so a
  /// retransmit writes exactly the original bytes even after the live
  /// send buffer has been reused. Each channel keeps its two latest
  /// messages (a Newton-off forward may have two in flight), indexed by
  /// seq parity.
  struct PendingSend {
    bool valid = false;
    PutDesc put;
    tofu::RegisteredBuffer copy;
  };

  /// Run fn(dir) for every dir in `dirs`, partitioned over the comm
  /// threads by the slot map (or serially for single-thread variants).
  /// A template, not a std::function: the per-stage closures capture
  /// more than std::function stores inline and would allocate per call.
  template <class Fn>
  void for_dirs(const std::vector<int>& dirs, const Fn& fn);

  /// Receive side of the forward exchange for one direction: verified
  /// wait and ghost-count check; ring unpack on the non-Newton path.
  void complete_forward_dir(int u);

  /// dir's registered send buffer, sized to the rings: the pack kernels
  /// write here (zero-copy staging) and reject a payload that would not
  /// fit a peer's ring before writing it.
  std::span<double> pack_buffer(int dir) {
    return {dir_[static_cast<std::size_t>(dir)].send_buf.as_doubles(),
            ring_doubles_};
  }
  /// The same buffer as a put source.
  Src send_buffer(int dir) const {
    const tofu::RegisteredBuffer& b = dir_[static_cast<std::size_t>(dir)].send_buf;
    return {b.stadd(), 0, b.as_doubles()};
  }
  /// The one originating send: put `value` (and, unless `dst` is a
  /// piggyback, its payload read from `src`) on channel (kind, dir)
  /// toward `peer`. Stamps seq + CRC and keeps the pending copy under
  /// reliability, then drains the local completion.
  void send(MsgKind kind, int dir, int peer, const Src& src, Place dst,
            std::uint32_t value);
  /// The one verified receive: dispatcher wait for (kind, dir), then —
  /// under reliability — CRC over the bytes that landed at `at`; a bad
  /// copy is counted, traced, re-admitted and NACKed until a clean one
  /// arrives.
  Edata receive(MsgKind kind, int dir, Place at);
  /// receive() of a ring payload, as a view of the slot it landed in.
  std::span<const double> receive_ring(MsgKind kind, int dir);
  /// Reverse reduction of (kind) payloads over the send channels:
  /// add(d, payload) runs in canonical channel order. One comm thread
  /// adds inline from the ring (zero-copy); a pool stages each payload
  /// in parallel, then adds serially so the float sums reproduce.
  template <class Add>
  void settle_reverse(MsgKind kind, const Add& add);

  // --- reliability protocol -------------------------------------------
  std::uint8_t next_seq(MsgKind kind, int dir) {
    return ++seq_out_[static_cast<int>(kind)][static_cast<std::size_t>(dir)];
  }
  /// Causal-trace flow id for one outgoing message: rank in the high
  /// half, a per-engine counter in the low half — unique across the job
  /// without coordination. 0 (= untraced) when the comm category is off,
  /// so the disabled path neither touches the counter nor perturbs
  /// anything downstream.
  std::uint64_t next_flow() {
    if (!obs::trace_enabled(obs::TraceCat::kComm)) return 0;
    return (static_cast<std::uint64_t>(ctx_.rank + 1) << 32) |
           (flow_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  /// NACK the sender of the (kind, dir) channel this rank receives on.
  void send_nack(MsgKind kind, int dir);
  /// Replay message `seq` of (kind, dir) iff it is still pending.
  void serve_retransmit(MsgKind kind, std::uint8_t seq, int dir);
  void progress_loop();

  tofu::Network* net_;
  AddressBook* book_;
  P2pOptions opt_;
  pool::SpinThreadPool* pool_;

  std::unique_ptr<tofu::UtofuContext> utofu_;
  std::array<tofu::VcqId, 6> vcq_{};
  std::vector<NoticeDispatcher> dispatch_;  ///< one per VCQ
  std::array<int, kNumDirs> slot_of_dir_{};

  GhostPlan plan_;
  std::array<DirState, kNumDirs> dir_{};
  std::array<std::array<tofu::RegisteredBuffer, kRingSlots>, kNumDirs> rings_;
  std::size_t ring_doubles_ = 0;
  /// Per-direction staging copies for multi-threaded reverse receives:
  /// payloads settle here in parallel, then accumulate serially in
  /// canonical channel order so the float sums reproduce bitwise.
  std::array<std::vector<double>, kNumDirs> reverse_stage_;

  bool reliable_ = false;
  int tnis_in_use_ = 0;
  std::uint8_t seq_out_[kKindCount][kNumDirs] = {};
  std::mutex pending_mu_;
  std::array<std::array<std::array<PendingSend, 2>, kNumDirs>, kKindCount>
      pending_;
  std::thread progress_;
  std::atomic<bool> stop_progress_{false};
  std::atomic<std::uint64_t> nacks_sent_{0};
  std::atomic<std::uint64_t> retransmits_served_{0};
  std::atomic<std::uint64_t> crc_rejects_{0};
  std::atomic<std::uint64_t> flow_seq_{0};
};

}  // namespace lmp::comm
