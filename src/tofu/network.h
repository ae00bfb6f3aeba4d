#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tofu/fault.h"
#include "tofu/link_telemetry.h"

namespace lmp::tofu {

/// STADD — a registered-memory handle, as in uTofu. Offsets into the
/// registered region address bytes within it.
using Stadd = std::uint64_t;

/// Globally unique VCQ identity. Senders address remote VCQs by id, the
/// ids having been exchanged out-of-band during setup (exactly as real
/// uTofu applications exchange `utofu_vcq_id_t`s).
using VcqId = std::int32_t;

inline constexpr VcqId kInvalidVcq = -1;

/// A wait on a completion queue exceeded its deadline. Real RDMA stacks
/// surface lost completions as errors rather than hanging; the message
/// names the queue (VCQ, direction, and — for the comm layer — the
/// logical channel) so a stuck run is diagnosable.
class CommTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The job was aborted (one rank hit an unrecoverable comm failure and
/// is rolling the run back). Blocking waits and new puts throw this so
/// every rank promptly unwinds to the failover path instead of spinning
/// out its full deadline against a torn-down peer.
class JobAbortedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Default ceiling on blocking completion waits. Generous — the host may
/// oversubscribe cores heavily — but finite, so a lost notice produces a
/// diagnostic instead of an infinite spin.
inline constexpr std::chrono::milliseconds kDefaultWaitDeadline{120000};

/// How a put participates in the fault model. Data puts are the normal
/// path and pass through the fault injector; retransmissions replay a
/// previously faulted message and bypass it (they model the recovered
/// path); control puts (retransmit requests) are the reliability
/// protocol's own traffic — fault-exempt and delivered on a separate
/// logical queue so a progress engine can service them out of band.
/// Retransmit and control puts post no TCQ completion (fire-and-forget).
enum class PutMode { kData, kRetransmit, kControl };

/// TCQ entry: local completion of a put issued from this VCQ.
struct TcqEntry {
  std::uint64_t edata = 0;
};

/// MRQ entry: remote-write notice at the destination VCQ, carrying the
/// 8-byte piggyback `edata` from the descriptor (paper Sec. 3.4 uses it
/// to ship ghost-offset values without a payload buffer).
struct MrqEntry {
  Stadd stadd = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t edata = 0;
  std::int32_t src_proc = -1;
  bool control = false;  ///< reliability-protocol message (PutMode::kControl)
  /// Causal-trace flow id the sender allocated for this message (0 = not
  /// traced). Rides next to `edata` exactly as a trace-side channel: the
  /// receiver's dispatcher closes the Perfetto flow with it.
  std::uint64_t flow_id = 0;
};

/// Fabric counters for tests and reports (how many registrations did a
/// run perform? how many bytes crossed the fabric?).
struct NetworkStats {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> bytes_put{0};
  std::atomic<std::uint64_t> registrations{0};
  std::atomic<std::uint64_t> deregistrations{0};
  std::atomic<std::uint64_t> retransmit_puts{0};  ///< replays of faulted puts
  std::atomic<std::uint64_t> control_puts{0};     ///< retransmit requests
};

/// Empty polls a blocking wait spins through, with a CPU pause between
/// them, before it starts yielding its core after every empty poll.
inline constexpr std::uint64_t kSpinPolls = 128;

/// Back off after the `spin`-th consecutive empty poll of a blocking
/// wait. The pause burst keeps wake-up latency near the poll cost when
/// the notice is a few microseconds away; the yields that follow let an
/// oversubscribed host (more rank threads than cores) run the sender.
inline void relax_poll(std::uint64_t spin) {
  if (spin < kSpinPolls) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  } else {
    std::this_thread::yield();
  }
}

/// Functional in-process model of the TofuD fabric.
///
/// One `Network` is shared by all simulated ranks of a job. It really
/// moves bytes: `put` memcpys from the source registered region into the
/// destination registered region, then posts a TCQ completion at the
/// sender VCQ and an MRQ notice at the destination VCQ. All timing is
/// handled separately by the performance model — this class provides
/// *semantics* (and the registration/queue discipline the paper's
/// optimizations are built on).
///
/// An optional `FaultInjector` turns the perfectly reliable model into a
/// lossy one: data puts may be dropped, delayed (the notice surfaces only
/// on a later poll), duplicated, or corrupted, and whole TNIs can be
/// declared down. Local TCQ completions still fire for faulted data puts
/// — as on real hardware, where the sender's completion only certifies
/// injection into the fabric, not delivery.
///
/// Thread-safety: no process-wide lock sits on the per-message path. A
/// put or poll touches only the VCQs and registrations it names, as on
/// the real fabric where each rank drives its own VCQs (paper Sec.
/// 3.2–3.4):
///  - VCQ ids index a slot table fixed at construction; the lookup is a
///    bounds check plus one atomic load of the slot's `active` flag.
///  - Each proc has its own registration map behind a reader-shared
///    lock: STADD lookups (two per put) take it shared and never
///    serialize; `reg_mem`/`dereg_mem` take that one proc's lock
///    exclusively. STADDs come from one network-wide counter, so a
///    STADD is never handed out twice.
///  - Each VCQ's TCQ and its data and control MRQs are rings guarded by
///    that VCQ's mutex, which remote senders take to post. Each ring
///    keeps an atomic count, so an empty poll returns without locking.
/// Like real CQs, a single VCQ must only be *driven* (puts issued,
/// completions polled) by one thread at a time — the fine-grained comm
/// layer assigns disjoint VCQs to its pool threads for this reason. The
/// exception is the control queue: `poll_control` and retransmit puts
/// may be issued by a dedicated progress thread (modelling the A64FX
/// assistant cores that run communication progress on Fugaku).
class Network {
 public:
  /// `nprocs` communication endpoints ("ranks"). Each endpoint owns
  /// `tnis` TNIs with `cqs` control queues each (TofuD: 6 x 9).
  explicit Network(int nprocs, int tnis = 6, int cqs = 9);
  /// Detaches this fabric's LinkTelemetry from the LiveFabricRegistry,
  /// folding its traffic into the process-wide retired totals.
  ~Network();

  int nprocs() const { return nprocs_; }
  int tnis() const { return tnis_; }
  int cqs_per_tni() const { return cqs_; }

  // --- fault injection ------------------------------------------------
  /// Attach a fault injector; pass nullptr to restore perfect delivery.
  /// Must be called before traffic starts (not synchronized with puts).
  /// Resolves proc coordinates for the injector's permanent-fault model
  /// (FaultInjector::map_procs).
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);
  FaultInjector* fault_injector() const { return injector_.get(); }

  // --- job abort --------------------------------------------------------
  /// Mark the fabric as aborted: every subsequent put and every blocking
  /// wait (including ones already spinning) throws JobAbortedError naming
  /// `reason`. Idempotent (first reason wins); permanent for the lifetime
  /// of this Network — a failover attempt builds a fresh fabric.
  void abort_fabric(const std::string& reason);
  bool fabric_aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }
  /// Throws JobAbortedError when the fabric has been aborted.
  void check_aborted() const;

  // --- memory registration ------------------------------------------
  /// Register [base, base+len) of `proc` and return its STADD. Real
  /// registration pins pages via a syscall, so the comm engines register
  /// only at setup (Sec. 3.4) and the performance model charges none.
  Stadd reg_mem(int proc, void* base, std::size_t len);
  void dereg_mem(int proc, Stadd stadd);

  /// Resolve a proc-local STADD to host memory. Rejects unknown STADDs
  /// and any window that leaves the registered region (overflow-safe).
  std::byte* resolve(int proc, Stadd stadd, std::uint64_t offset,
                     std::uint64_t length) const;

  // --- VCQ lifecycle --------------------------------------------------
  /// Create a VCQ on (proc, tni, cq). Throws if that CQ is already bound
  /// (hardware CQs are exclusive — paper Sec. 3.3). The id is a function
  /// of (proc, tni, cq): re-creating a freed CQ returns the same id, with
  /// empty queues. A freed id is rejected until then.
  VcqId create_vcq(int proc, int tni, int cq);
  void free_vcq(VcqId id);
  int proc_of(VcqId id) const;
  int tni_of(VcqId id) const;

  // --- one-sided operations -------------------------------------------
  /// RDMA put: copy `length` bytes from (src_stadd+src_off) of the VCQ's
  /// proc into (dst_stadd+dst_off) of the destination VCQ's proc. Posts a
  /// TCQ entry locally and an MRQ entry (carrying `edata`) remotely.
  /// Both windows are validated up front — even for length 0 — so an
  /// invalid STADD or an out-of-region offset is always a hard error.
  /// `flow` is the sender-allocated causal-trace id (0 = untraced); it is
  /// delivered in the MRQ notice and triggers a Perfetto flow-start (or
  /// flow-step for retransmits) inside this put's span.
  void put(VcqId src_vcq, VcqId dst_vcq, Stadd src_stadd, std::uint64_t src_off,
           Stadd dst_stadd, std::uint64_t dst_off, std::uint64_t length,
           std::uint64_t edata = 0, PutMode mode = PutMode::kData,
           std::uint64_t flow = 0);

  /// Piggyback-only put: delivers just the 8-byte `edata` through the MRQ
  /// descriptor, no buffer write (paper Sec. 3.4's offset exchange).
  void put_piggyback(VcqId src_vcq, VcqId dst_vcq, std::uint64_t edata,
                     PutMode mode = PutMode::kData, std::uint64_t flow = 0);

  // --- completion polling ----------------------------------------------
  /// Data-plane notices only; control messages are never returned here.
  std::optional<TcqEntry> poll_tcq(VcqId id);
  std::optional<MrqEntry> poll_mrq(VcqId id);

  /// Control-plane notices only (retransmit requests). May be called by
  /// a progress thread concurrently with the owner's data polls.
  std::optional<MrqEntry> poll_control(VcqId id);

  /// Blocking variants (spin, then yield — the host may have fewer cores
  /// than simulated ranks; see relax_poll). Throw CommTimeoutError past
  /// the deadline.
  TcqEntry wait_tcq(VcqId id,
                    std::chrono::milliseconds deadline = kDefaultWaitDeadline);
  MrqEntry wait_mrq(VcqId id,
                    std::chrono::milliseconds deadline = kDefaultWaitDeadline);

  const NetworkStats& stats() const { return stats_; }

  /// Per-link / per-TNI transit accounting. Puts are charged only when
  /// `obs::metrics_enabled()`; a disabled run pays one branch per put.
  const LinkTelemetry& link_telemetry() const { return links_; }
  LinkTelemetry& link_telemetry() { return links_; }

 private:
  struct Region {
    std::byte* base = nullptr;
    std::size_t len = 0;
  };
  /// FIFO that keeps its capacity: a ring over a power-of-two buffer,
  /// regrown (doubled) only past its high-water mark, so a steady stream
  /// of notices allocates nothing. Pushes and pops happen under the
  /// owning VCQ's mutex; `empty()` may be read without it.
  template <class T>
  class Ring {
   public:
    bool empty() const { return count_.load(std::memory_order_relaxed) == 0; }
    std::size_t size() const { return count_.load(std::memory_order_relaxed); }
    void reserve(std::size_t n) {
      if (n > buf_.size()) regrow(n);
    }
    void push(const T& v) {
      const std::size_t n = size();
      if (n == buf_.size()) regrow(n == 0 ? 4 : 2 * n);
      buf_[(head_ + n) & (buf_.size() - 1)] = v;
      count_.store(n + 1, std::memory_order_relaxed);
    }
    /// Caller checked !empty().
    T pop() {
      const T v = buf_[head_];
      head_ = (head_ + 1) & (buf_.size() - 1);
      count_.store(size() - 1, std::memory_order_relaxed);
      return v;
    }
    void clear() {
      head_ = 0;
      count_.store(0, std::memory_order_relaxed);
    }

   private:
    void regrow(std::size_t cap);

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::atomic<std::size_t> count_{0};
  };

  struct DelayedEntry {
    MrqEntry entry;
    int polls_left = 0;
  };
  /// One slot of the VCQ table; (proc, tni, cq) are fixed by its index.
  /// Cache-line aligned so ranks polling neighbouring VCQs do not share
  /// a line.
  struct alignas(64) Vcq {
    int proc = -1;
    int tni = -1;
    int cq = -1;
    std::atomic<bool> active{false};
    std::mutex mu;
    Ring<TcqEntry> tcq;
    Ring<MrqEntry> mrq;  ///< data notices
    Ring<MrqEntry> ctl;  ///< control notices (PutMode::kControl)
    std::vector<DelayedEntry> delayed;
    /// delayed.size(), readable without `mu`: a poll must take the
    /// locked path while any delay budget is still running.
    std::atomic<std::size_t> ndelayed{0};

    void clear_queues();
  };

  /// One proc's registrations. Lookups (two per put) take `mu` shared, so
  /// they never serialize; reg_mem/dereg_mem take it exclusively.
  struct Registry {
    mutable std::shared_mutex mu;
    std::unordered_map<Stadd, Region> regions;
  };

  /// Lock-free: the VCQ of `id`, or invalid_argument("unknown VCQ").
  Vcq& vcq_checked(VcqId id) const;

  /// Shared-locked lookup + overflow-safe window check; `what` names the
  /// access in the error message ("put source", "put destination", ...).
  std::byte* window_checked(int proc, Stadd stadd, std::uint64_t offset,
                            std::uint64_t length, const char* what) const;

  /// Queue a delivered notice at `dst` (delayed, duplicated, or on the
  /// data or control ring) and return the MRQ depth it leaves.
  static std::size_t post_notice(Vcq& dst, const MrqEntry& entry,
                                 const FaultDecision& fault);
  static void post_tcq(Vcq& src, std::uint64_t edata);

  /// Move delayed notices whose poll budget expired into the MRQ.
  /// Caller holds v.mu.
  static void advance_delayed(Vcq& v);

  int nprocs_;
  int tnis_;
  int cqs_;

  std::unique_ptr<Registry[]> regs_;  // per proc
  std::atomic<Stadd> next_stadd_{1};

  int nvcqs_ = 0;
  std::unique_ptr<Vcq[]> vcqs_;  // id = (proc * tnis + tni) * cqs + cq

  /// Permanent-fault gate shared by put and put_piggyback: advances the
  /// injector's onset clock, then throws UnreachableError if the route
  /// is severed.
  void check_route(int src_proc, int dst_proc) const;

  std::shared_ptr<FaultInjector> injector_;
  NetworkStats stats_;
  LinkTelemetry links_;

  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  std::string abort_reason_;
};

}  // namespace lmp::tofu
