#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "comm/msg_codec.h"
#include "obs/alloc_tracker.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "tofu/network.h"

namespace lmp::comm {

namespace detail {
/// Wait-latency histogram, resolved once (registry lookups lock).
inline obs::Histogram& notice_wait_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("comm.wait_ns");
  return h;
}

/// Static-storage span name per awaited channel kind (TraceSpan keeps the
/// pointer; the "wait." prefix is what the critical-path analyzer keys on).
inline const char* wait_span_name(MsgKind k) {
  switch (k) {
    case MsgKind::kBorder: return "wait.border";
    case MsgKind::kBorderAck: return "wait.border_ack";
    case MsgKind::kForward: return "wait.forward";
    case MsgKind::kReverse: return "wait.reverse";
    case MsgKind::kScalarFwd: return "wait.scalar_fwd";
    case MsgKind::kScalarRev: return "wait.scalar_rev";
    case MsgKind::kExchange: return "wait.exchange";
    case MsgKind::kRetransmitReq: return "wait.retransmit_req";
    default: return "wait.?";
  }
}
}  // namespace detail

inline constexpr int kKindCount = static_cast<int>(MsgKind::kCount);
inline constexpr int kMaxDirs = 26;

/// Knobs of the receiver-driven reliability protocol (active only when
/// `NoticeDispatcher::enable_reliability` has been called).
struct ReliabilityParams {
  /// Hard ceiling on one logical wait; past it, CommTimeoutError.
  std::chrono::milliseconds wait_deadline{120000};
  /// First NACK after this long without the awaited notice...
  std::chrono::milliseconds nack_after{2};
  /// ...then exponential backoff up to this cap.
  std::chrono::milliseconds nack_max{256};
};

/// Receiver-side reliability counters (per dispatcher; summed per rank).
///
/// Copy and assignment take relaxed snapshots of the atomics. Two
/// distinct situations rely on this: dispatchers are *assigned* into
/// their slot vector during setup (the implicit move falls back to this
/// copy), and `health()` snapshots the counters during failover teardown
/// while the owner thread may still be incrementing them — a plain
/// non-atomic copy there would be a data race.
struct DispatcherCounters {
  std::atomic<std::uint64_t> duplicates_dropped{0};

  DispatcherCounters() = default;
  DispatcherCounters(const DispatcherCounters& o)
      : duplicates_dropped(
            o.duplicates_dropped.load(std::memory_order_relaxed)) {}
  DispatcherCounters& operator=(const DispatcherCounters& o) {
    duplicates_dropped.store(
        o.duplicates_dropped.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }
};

/// Orders the completion notices of one VCQ.
///
/// Notices for different logical channels can interleave on a VCQ (a fast
/// neighbor's forward for step n+1 can land while we still collect
/// reverse notices for step n). The engine's stage ordering allows at
/// most TWO outstanding messages per (kind, direction, sender): a
/// Newton-off neighbor finishes step n with our step-n forward, which we
/// send before we wait, so its step-(n+1) forward can land while we still
/// wait on another channel; its step-(n+2) forward needs our step-(n+1)
/// one. A two-deep FIFO per (kind, direction), drained oldest first,
/// therefore suffices, and keeps the fabric's per-sender order.
///
/// With reliability enabled (fault-injected runs), the dispatcher also
/// tracks per-channel sequence numbers and accepts each channel strictly
/// in order: a notice behind the next expected seq is a duplicate or a
/// stale original, one ahead of it follows a lost, delayed or rejected
/// message — both are dropped, and a wait that stalls issues NACKs (via
/// the `NackFn` callback, with exponential backoff) asking the sender to
/// replay the next expected seq. Sequence numbers are 8-bit and wrap —
/// the two-outstanding bound keeps the window tiny.
///
/// Exactly one thread drives a given dispatcher (it owns the VCQ).
class NoticeDispatcher {
 public:
  /// Called when the awaited (kind, dir) notice is overdue.
  using NackFn = std::function<void(MsgKind kind, int dir)>;

  NoticeDispatcher() = default;
  NoticeDispatcher(tofu::Network* net, tofu::VcqId vcq) : net_(net), vcq_(vcq) {}

  tofu::VcqId vcq() const { return vcq_; }

  void enable_reliability(NackFn nack, ReliabilityParams params = {}) {
    nack_ = std::move(nack);
    params_ = params;
    reliable_ = true;
  }
  bool reliable() const { return reliable_; }
  void set_wait_deadline(std::chrono::milliseconds d) {
    params_.wait_deadline = d;
  }
  const DispatcherCounters& counters() const { return counters_; }

  /// Re-admit a replay of `seq` on (kind, dir) after its payload failed
  /// the CRC check. A message parked behind it is discarded as well, so
  /// the replay is delivered first; the discarded one is NACKed for in
  /// order once its own wait stalls.
  void accept_retransmit(MsgKind kind, int dir, std::uint8_t seq) {
    last_seq_[static_cast<int>(kind)][dir] = static_cast<std::uint8_t>(seq - 1);
    stash_[static_cast<int>(kind)][dir].count = 0;
  }

  /// Sequence number the next (kind, dir) message should carry — what a
  /// NACK asks the sender to replay. Senders start their channels at 1.
  std::uint8_t expected_seq(MsgKind kind, int dir) const {
    return static_cast<std::uint8_t>(last_seq_[static_cast<int>(kind)][dir] + 1);
  }

  /// Block until a notice with (kind, dir) is available; stash everything
  /// else that arrives meanwhile. Throws CommTimeoutError (naming the
  /// VCQ and channel) once `wait_deadline` is exceeded, and
  /// JobAbortedError as soon as the fabric is aborted by a failing rank.
  Edata wait(MsgKind kind, int dir) {
    // The notice-wait span: what the sender's flow-start visually binds
    // to once the flow-finish below lands inside it. The matching alloc
    // scope pins any heap traffic during the wait (stash bookkeeping,
    // late registrations) on the same per-channel label.
    const obs::TraceSpan wait_span(obs::TraceCat::kComm,
                                   detail::wait_span_name(kind));
    LMP_ALLOC_SCOPE(detail::wait_span_name(kind));
    Stash& fifo = stash_[static_cast<int>(kind)][dir];
    if (fifo.count > 0) {
      const Stashed oldest = fifo.slot[0];
      fifo.slot[0] = fifo.slot[1];
      --fifo.count;
      if (oldest.flow != 0) {
        LMP_TRACE_FLOW(obs::TraceCat::kComm, obs::kMsgFlowName, oldest.flow,
                       obs::TraceEvent::kFlowFinish);
      }
      return oldest.e;
    }
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t wait_t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
    auto backoff = params_.nack_after;
    std::chrono::steady_clock::duration next_nack = params_.nack_after;
    for (std::uint64_t spin = 0;; ++spin) {
      if (auto notice = net_->poll_mrq(vcq_)) {
        const Edata e = Edata::decode(notice->edata);
        if (reliable_ && e.seq != expected_seq(e.kind, e.dir)) {
          counters_.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
          LMP_TRACE_INSTANT(obs::TraceCat::kComm, "notice.dup_dropped");
          continue;
        }
        if (e.kind == kind && e.dir == dir) {
          bump_seq(e);
          if (obs::metrics_enabled()) {
            detail::notice_wait_hist().record(
                static_cast<std::uint64_t>(obs::now_ns() - wait_t0));
          }
          if (notice->flow_id != 0) {
            LMP_TRACE_FLOW(obs::TraceCat::kComm, obs::kMsgFlowName,
                           notice->flow_id, obs::TraceEvent::kFlowFinish);
          }
          return e;
        }
        Stash& other = stash_[static_cast<int>(e.kind)][e.dir];
        if (other.count == 2) throw_stage_ordering(e, other.slot[1]);
        bump_seq(e);
        other.slot[other.count++] = Stashed{e, notice->flow_id};
        continue;
      }
      if ((spin & 0x3FF) == 0) {
        // A fabric abort (failover teardown) must unblock this wait
        // promptly — with NACK backoff in flight, spinning out the full
        // deadline against a peer that is already gone would stall every
        // surviving rank for minutes.
        net_->check_aborted();
        const auto waited = std::chrono::steady_clock::now() - start;
        if (waited >= params_.wait_deadline) {
          std::ostringstream os;
          os << "timeout after " << params_.wait_deadline.count()
             << " ms waiting for " << kind_name(kind) << " notice, dir " << dir
             << ", on VCQ " << vcq_;
          throw tofu::CommTimeoutError(os.str());
        }
        if (reliable_ && nack_ && waited >= next_nack) {
          LMP_TRACE_INSTANT(obs::TraceCat::kComm, "nack.issued");
          nack_(kind, dir);
          backoff = (std::min)(backoff * 2, params_.nack_max);
          next_nack = waited + backoff;
        }
      }
      tofu::relax_poll(spin);
    }
  }

  /// Drain the sender-side completion of the most recent put (models the
  /// TCQ poll a real uTofu sender performs before reusing its buffer).
  void drain_tcq() { net_->wait_tcq(vcq_, params_.wait_deadline); }

 private:
  void bump_seq(const Edata& e) {
    if (reliable_) last_seq_[static_cast<int>(e.kind)][e.dir] = e.seq;
  }

  /// A reordered notice parked for a later wait, with the trace flow id
  /// that arrived alongside it (closed when the wait consumes it).
  struct Stashed {
    Edata e;
    std::uint64_t flow = 0;
  };
  /// One (kind, dir) channel's parked notices, oldest first.
  struct Stash {
    Stashed slot[2];
    int count = 0;
  };

  /// A third message reached a (kind, dir) channel whose stash already
  /// holds two. Names everything needed to find which stage ran ahead;
  /// `stashed` is the newest parked message.
  [[noreturn]] void throw_stage_ordering(const Edata& incoming,
                                         const Stashed& stashed) const {
    std::ostringstream os;
    os << "more than two outstanding messages on one (kind, dir) channel "
          "— stage ordering violated: proc "
       << net_->proc_of(vcq_) << ", VCQ " << vcq_ << ", kind "
       << kind_name(incoming.kind) << ", dir " << incoming.dir
       << ", stashed seq " << static_cast<int>(stashed.e.seq)
       << ", incoming seq " << static_cast<int>(incoming.seq);
    throw std::logic_error(os.str());
  }

  tofu::Network* net_ = nullptr;
  tofu::VcqId vcq_ = tofu::kInvalidVcq;
  Stash stash_[kKindCount][kMaxDirs] = {};
  std::uint8_t last_seq_[kKindCount][kMaxDirs] = {};
  bool reliable_ = false;
  NackFn nack_;
  ReliabilityParams params_{};
  DispatcherCounters counters_;
};

}  // namespace lmp::comm
