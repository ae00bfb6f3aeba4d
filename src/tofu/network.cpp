#include "tofu/network.h"

#include <bit>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace lmp::tofu {

namespace {

// Per-TNI instruments, cached once so the put hot path never touches the
// registry mutex. Names are static storage (TraceSpan keeps the pointer).
constexpr int kMaxInstrumentedTnis = 8;

const char* put_span_name(int tni) {
  static constexpr const char* kNames[kMaxInstrumentedTnis] = {
      "put.tni0", "put.tni1", "put.tni2", "put.tni3",
      "put.tni4", "put.tni5", "put.tni6", "put.tni7"};
  return tni >= 0 && tni < kMaxInstrumentedTnis ? kNames[tni] : "put.tni?";
}

obs::Histogram& put_latency_hist(int tni) {
  static obs::Histogram* hists[kMaxInstrumentedTnis] = {
      &obs::MetricsRegistry::instance().histogram("tofu.tni0.put_ns"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni1.put_ns"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni2.put_ns"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni3.put_ns"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni4.put_ns"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni5.put_ns"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni6.put_ns"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni7.put_ns")};
  return *hists[tni >= 0 && tni < kMaxInstrumentedTnis ? tni : 0];
}

obs::Histogram& mrq_depth_hist(int tni) {
  static obs::Histogram* hists[kMaxInstrumentedTnis] = {
      &obs::MetricsRegistry::instance().histogram("tofu.tni0.mrq_depth"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni1.mrq_depth"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni2.mrq_depth"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni3.mrq_depth"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni4.mrq_depth"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni5.mrq_depth"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni6.mrq_depth"),
      &obs::MetricsRegistry::instance().histogram("tofu.tni7.mrq_depth")};
  return *hists[tni >= 0 && tni < kMaxInstrumentedTnis ? tni : 0];
}

// Only referenced from LMP_TRACE_COUNTER sites, which compile out
// entirely under LMP_TRACE=OFF.
[[maybe_unused]] const char* mrq_depth_counter_name(int tni) {
  static constexpr const char* kNames[kMaxInstrumentedTnis] = {
      "mrq.tni0", "mrq.tni1", "mrq.tni2", "mrq.tni3",
      "mrq.tni4", "mrq.tni5", "mrq.tni6", "mrq.tni7"};
  return tni >= 0 && tni < kMaxInstrumentedTnis ? kNames[tni] : "mrq.tni?";
}

// Capacity each data ring of a VCQ reserves when it is created: deeper
// than the notices one VCQ ever holds in a clean run, so the steady state
// never regrows (a deeper burst still regrows, once).
constexpr std::size_t kRingDepth = 16;

}  // namespace

template <class T>
void Network::Ring<T>::regrow(std::size_t cap) {
  std::vector<T> next(std::bit_ceil(cap));
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
  }
  buf_.swap(next);
  head_ = 0;
}

void Network::Vcq::clear_queues() {
  tcq.clear();
  mrq.clear();
  ctl.clear();
  delayed.clear();
  ndelayed.store(0, std::memory_order_relaxed);
}

Network::Network(int nprocs, int tnis, int cqs)
      // Clamp the telemetry shape so the explicit validation below owns
      // the error for a degenerate network shape.
    : nprocs_(nprocs),
      tnis_(tnis),
      cqs_(cqs),
      links_(nprocs > 0 ? nprocs : 1, tnis > 0 ? tnis : 1) {
  if (nprocs < 1 || tnis < 1 || cqs < 1) {
    throw std::invalid_argument("network shape must be >= 1 everywhere");
  }
  regs_ = std::make_unique<Registry[]>(static_cast<std::size_t>(nprocs));
  nvcqs_ = nprocs * tnis * cqs;
  vcqs_ = std::make_unique<Vcq[]>(static_cast<std::size_t>(nvcqs_));
  for (int id = 0; id < nvcqs_; ++id) {
    Vcq& v = vcqs_[static_cast<std::size_t>(id)];
    v.proc = id / (tnis * cqs);
    v.tni = id / cqs % tnis;
    v.cq = id % cqs;
  }
  LiveFabricRegistry::instance().attach(&links_);
}

Network::~Network() {
  // Folds this fabric's traffic into the process-wide retired totals so
  // the telemetry sampler's per-TNI series stay monotonic across
  // per-attempt fabric lifetimes. Runs before members are destroyed.
  LiveFabricRegistry::instance().detach(&links_);
}

void Network::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
  if (injector_) injector_->map_procs(nprocs_);
}

void Network::abort_fabric(const std::string& reason) {
  {
    std::lock_guard lock(abort_mu_);
    if (abort_reason_.empty()) abort_reason_ = reason;
  }
  aborted_.store(true, std::memory_order_release);
}

void Network::check_aborted() const {
  if (!aborted_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(abort_mu_);
  throw JobAbortedError("fabric aborted: " + abort_reason_);
}

void Network::check_route(int src_proc, int dst_proc) const {
  if (injector_ == nullptr) return;
  injector_->note_put();
  if (injector_->unreachable(src_proc, dst_proc)) {
    injector_->stats().unreachable_puts.fetch_add(1,
                                                  std::memory_order_relaxed);
    throw UnreachableError(
        injector_->unreachable_reason(src_proc, dst_proc));
  }
}

Stadd Network::reg_mem(int proc, void* base, std::size_t len) {
  if (proc < 0 || proc >= nprocs_) throw std::out_of_range("proc");
  if (base == nullptr || len == 0) throw std::invalid_argument("empty region");
  const Stadd stadd = next_stadd_.fetch_add(1, std::memory_order_relaxed);
  Registry& reg = regs_[static_cast<std::size_t>(proc)];
  std::lock_guard lock(reg.mu);
  reg.regions[stadd] = {static_cast<std::byte*>(base), len};
  stats_.registrations.fetch_add(1, std::memory_order_relaxed);
  return stadd;
}

void Network::dereg_mem(int proc, Stadd stadd) {
  if (proc < 0 || proc >= nprocs_) throw std::out_of_range("proc");
  Registry& reg = regs_[static_cast<std::size_t>(proc)];
  std::lock_guard lock(reg.mu);
  if (reg.regions.erase(stadd) == 0) {
    throw std::invalid_argument("deregistering unknown stadd");
  }
  stats_.deregistrations.fetch_add(1, std::memory_order_relaxed);
}

std::byte* Network::window_checked(int proc, Stadd stadd, std::uint64_t offset,
                                   std::uint64_t length,
                                   const char* what) const {
  if (proc < 0 || proc >= nprocs_) throw std::out_of_range("proc");
  Region r;
  {
    const Registry& reg = regs_[static_cast<std::size_t>(proc)];
    std::shared_lock lock(reg.mu);
    const auto it = reg.regions.find(stadd);
    if (it != reg.regions.end()) r = it->second;
  }
  if (r.base == nullptr) {
    std::ostringstream os;
    os << what << ": unknown stadd " << stadd << " on proc " << proc;
    throw std::invalid_argument(os.str());
  }
  // Checked as two comparisons so offset + length cannot wrap around.
  const std::uint64_t region = r.len;
  if (offset > region || length > region - offset) {
    std::ostringstream os;
    os << what << ": window [" << offset << ", +" << length
       << ") leaves registered region of " << region << " bytes (stadd "
       << stadd << ", proc " << proc << ")";
    throw std::out_of_range(os.str());
  }
  return r.base + offset;
}

std::byte* Network::resolve(int proc, Stadd stadd, std::uint64_t offset,
                            std::uint64_t length) const {
  return window_checked(proc, stadd, offset, length, "RDMA access");
}

VcqId Network::create_vcq(int proc, int tni, int cq) {
  if (proc < 0 || proc >= nprocs_) throw std::out_of_range("proc");
  if (tni < 0 || tni >= tnis_) throw std::out_of_range("tni");
  if (cq < 0 || cq >= cqs_) throw std::out_of_range("cq");
  const VcqId id = (proc * tnis_ + tni) * cqs_ + cq;
  Vcq& v = vcqs_[static_cast<std::size_t>(id)];
  std::lock_guard lock(v.mu);
  if (v.active.load(std::memory_order_relaxed)) {
    throw std::invalid_argument("CQ already bound to a VCQ");
  }
  // Drop whatever reached the CQ after its previous VCQ was freed.
  v.clear_queues();
  v.tcq.reserve(kRingDepth);
  v.mrq.reserve(kRingDepth);
  v.active.store(true, std::memory_order_release);
  return id;
}

void Network::free_vcq(VcqId id) {
  if (id < 0 || id >= nvcqs_) throw std::invalid_argument("freeing unknown VCQ");
  Vcq& v = vcqs_[static_cast<std::size_t>(id)];
  std::lock_guard lock(v.mu);
  if (!v.active.load(std::memory_order_relaxed)) {
    throw std::invalid_argument("freeing unknown VCQ");
  }
  v.active.store(false, std::memory_order_release);
  v.clear_queues();
}

Network::Vcq& Network::vcq_checked(VcqId id) const {
  if (id < 0 || id >= nvcqs_ ||
      !vcqs_[static_cast<std::size_t>(id)].active.load(
          std::memory_order_acquire)) {
    throw std::invalid_argument("unknown VCQ");
  }
  return vcqs_[static_cast<std::size_t>(id)];
}

int Network::proc_of(VcqId id) const { return vcq_checked(id).proc; }
int Network::tni_of(VcqId id) const { return vcq_checked(id).tni; }

void Network::put(VcqId src_vcq, VcqId dst_vcq, Stadd src_stadd,
                  std::uint64_t src_off, Stadd dst_stadd, std::uint64_t dst_off,
                  std::uint64_t length, std::uint64_t edata, PutMode mode,
                  std::uint64_t flow) {
  check_aborted();
  Vcq& src = vcq_checked(src_vcq);
  Vcq& dst = vcq_checked(dst_vcq);
  const obs::TraceSpan put_span(obs::TraceCat::kTofu, put_span_name(src.tni));
  const std::int64_t put_t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
  // Permanent faults sever the route for every mode — retransmits and
  // control traffic ride the same wires, so the reliability protocol
  // cannot paper over them (that is the failover ladder's job).
  check_route(src.proc, dst.proc);

  // Validate both windows before touching any queue, even for length 0:
  // a put with a bogus STADD or offset is a programming error regardless
  // of how many bytes it would have moved.
  const std::byte* from =
      window_checked(src.proc, src_stadd, src_off, length, "put source");
  std::byte* to =
      window_checked(dst.proc, dst_stadd, dst_off, length, "put destination");

  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_put.fetch_add(length, std::memory_order_relaxed);
  if (mode == PutMode::kRetransmit) {
    stats_.retransmit_puts.fetch_add(1, std::memory_order_relaxed);
  } else if (mode == PutMode::kControl) {
    stats_.control_puts.fetch_add(1, std::memory_order_relaxed);
  }
  // Open (or extend, for a retransmit replaying the same id) the message
  // flow inside this put's span. Emitted before the fault gauntlet: the
  // sender considers the message injected either way.
  if (flow != 0) {
    LMP_TRACE_FLOW(obs::TraceCat::kComm, obs::kMsgFlowName, flow,
                   mode == PutMode::kRetransmit
                       ? obs::TraceEvent::kFlowStep
                       : obs::TraceEvent::kFlowStart);
  }

  FaultDecision fault;
  if (mode == PutMode::kData && injector_) {
    if (injector_->tni_down(src.tni) || injector_->tni_down(dst.tni)) {
      // The message never leaves the NIC; the sender still observes a
      // local completion (injection into a dead link is not detectable
      // from the TCQ on real hardware either). No link is charged.
      injector_->stats().tni_drops.fetch_add(1, std::memory_order_relaxed);
      post_tcq(src, edata);
      return;
    }
    fault = injector_->decide(src.proc, dst.proc, edata);
  }

  // Dropped/corrupted/delayed puts still entered the fabric and crossed
  // every link on the route; a duplicate crossed each of them twice.
  if (obs::metrics_enabled()) {
    links_.charge(src.proc, dst.proc, src.tni, length,
                  fault.duplicate ? 2 : 1);
  }

  if (fault.drop) {
    post_tcq(src, edata);
    return;
  }

  if (length > 0) {
    std::memcpy(to, from, length);
    if (fault.corrupt) {
      to[fault.corrupt_pos % length] ^= std::byte{0x5A};
    }
  }

  const std::size_t mrq_depth = post_notice(
      dst,
      {dst_stadd, dst_off, length, edata, src.proc, mode == PutMode::kControl,
       flow},
      fault);
  if (obs::metrics_enabled()) {
    mrq_depth_hist(dst.tni).record(mrq_depth);
    put_latency_hist(src.tni).record(
        static_cast<std::uint64_t>(obs::now_ns() - put_t0));
  }
  LMP_TRACE_COUNTER(obs::TraceCat::kTofu, mrq_depth_counter_name(dst.tni),
                    static_cast<std::int64_t>(mrq_depth));
  if (mode == PutMode::kData) post_tcq(src, edata);
}

void Network::put_piggyback(VcqId src_vcq, VcqId dst_vcq, std::uint64_t edata,
                            PutMode mode, std::uint64_t flow) {
  check_aborted();
  Vcq& src = vcq_checked(src_vcq);
  Vcq& dst = vcq_checked(dst_vcq);
  const obs::TraceSpan put_span(obs::TraceCat::kTofu, put_span_name(src.tni));
  const std::int64_t put_t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
  check_route(src.proc, dst.proc);
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  if (mode == PutMode::kRetransmit) {
    stats_.retransmit_puts.fetch_add(1, std::memory_order_relaxed);
  } else if (mode == PutMode::kControl) {
    stats_.control_puts.fetch_add(1, std::memory_order_relaxed);
  }
  if (flow != 0) {
    LMP_TRACE_FLOW(obs::TraceCat::kComm, obs::kMsgFlowName, flow,
                   mode == PutMode::kRetransmit
                       ? obs::TraceEvent::kFlowStep
                       : obs::TraceEvent::kFlowStart);
  }

  FaultDecision fault;
  if (mode == PutMode::kData && injector_) {
    if (injector_->tni_down(src.tni) || injector_->tni_down(dst.tni)) {
      injector_->stats().tni_drops.fetch_add(1, std::memory_order_relaxed);
      post_tcq(src, edata);
      return;
    }
    fault = injector_->decide(src.proc, dst.proc, edata);
  }

  // A piggyback put moves no payload but its descriptor packet still
  // crosses every link on the route.
  if (obs::metrics_enabled()) {
    links_.charge(src.proc, dst.proc, src.tni, 0, fault.duplicate ? 2 : 1);
  }

  if (fault.drop) {
    post_tcq(src, edata);
    return;
  }

  std::uint64_t delivered = edata;
  if (fault.corrupt) {
    // No payload to damage — flip one bit of the piggyback value field
    // (low 32 bits) so the receiver's checksum over the value catches it.
    delivered ^= 1ULL << (fault.corrupt_pos % 32);
  }

  const std::size_t mrq_depth = post_notice(
      dst, {0, 0, 0, delivered, src.proc, mode == PutMode::kControl, flow},
      fault);
  if (obs::metrics_enabled()) {
    mrq_depth_hist(dst.tni).record(mrq_depth);
    put_latency_hist(src.tni).record(
        static_cast<std::uint64_t>(obs::now_ns() - put_t0));
  }
  LMP_TRACE_COUNTER(obs::TraceCat::kTofu, mrq_depth_counter_name(dst.tni),
                    static_cast<std::int64_t>(mrq_depth));
  if (mode == PutMode::kData) post_tcq(src, edata);
}

std::size_t Network::post_notice(Vcq& dst, const MrqEntry& entry,
                                 const FaultDecision& fault) {
  std::lock_guard lock(dst.mu);
  if (fault.delay_polls > 0) {
    dst.delayed.push_back({entry, fault.delay_polls});
    dst.ndelayed.store(dst.delayed.size(), std::memory_order_relaxed);
  } else {
    (entry.control ? dst.ctl : dst.mrq).push(entry);
  }
  // The duplicate races ahead of a delayed original: reordering is
  // exactly the hazard duplicates create on a real fabric.
  if (fault.duplicate) dst.mrq.push(entry);
  return dst.mrq.size() + dst.ctl.size();
}

void Network::post_tcq(Vcq& src, std::uint64_t edata) {
  std::lock_guard lock(src.mu);
  src.tcq.push({edata});
}

std::optional<TcqEntry> Network::poll_tcq(VcqId id) {
  Vcq& v = vcq_checked(id);
  if (v.tcq.empty()) return std::nullopt;
  std::lock_guard lock(v.mu);
  if (v.tcq.empty()) return std::nullopt;  // freed meanwhile
  return v.tcq.pop();
}

void Network::advance_delayed(Vcq& v) {
  for (auto it = v.delayed.begin(); it != v.delayed.end();) {
    if (--it->polls_left <= 0) {
      (it->entry.control ? v.ctl : v.mrq).push(it->entry);
      it = v.delayed.erase(it);
    } else {
      ++it;
    }
  }
  v.ndelayed.store(v.delayed.size(), std::memory_order_relaxed);
}

std::optional<MrqEntry> Network::poll_mrq(VcqId id) {
  Vcq& v = vcq_checked(id);
  // A running delay budget is counted in data polls, so only a poll with
  // nothing queued and nothing delayed may skip the lock.
  if (v.mrq.empty() && v.ndelayed.load(std::memory_order_relaxed) == 0) {
    return std::nullopt;
  }
  std::lock_guard lock(v.mu);
  advance_delayed(v);
  if (v.mrq.empty()) return std::nullopt;
  return v.mrq.pop();
}

std::optional<MrqEntry> Network::poll_control(VcqId id) {
  Vcq& v = vcq_checked(id);
  // No delayed-queue advance here: delay budgets are measured in *data*
  // polls by the owning thread, and a fast-spinning progress thread must
  // not burn them down.
  if (v.ctl.empty()) return std::nullopt;
  std::lock_guard lock(v.mu);
  if (v.ctl.empty()) return std::nullopt;  // freed meanwhile
  return v.ctl.pop();
}

namespace {

[[noreturn]] void throw_wait_timeout(const char* queue, VcqId id, int proc,
                                     int tni, std::chrono::milliseconds deadline) {
  std::ostringstream os;
  os << "timeout after " << deadline.count() << " ms waiting on " << queue
     << " of VCQ " << id << " (proc " << proc << ", tni " << tni << ")";
  throw CommTimeoutError(os.str());
}

}  // namespace

TcqEntry Network::wait_tcq(VcqId id, std::chrono::milliseconds deadline) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t spin = 0;; ++spin) {
    if (auto e = poll_tcq(id)) return *e;
    // Amortize the clock read: a syscall-free spin iteration is a few ns.
    if ((spin & 0x3FF) == 0) {
      check_aborted();
      if (std::chrono::steady_clock::now() - start >= deadline) {
        const Vcq& v = vcq_checked(id);
        throw_wait_timeout("TCQ", id, v.proc, v.tni, deadline);
      }
    }
    relax_poll(spin);
  }
}

MrqEntry Network::wait_mrq(VcqId id, std::chrono::milliseconds deadline) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t spin = 0;; ++spin) {
    if (auto e = poll_mrq(id)) return *e;
    if ((spin & 0x3FF) == 0) {
      check_aborted();
      if (std::chrono::steady_clock::now() - start >= deadline) {
        const Vcq& v = vcq_checked(id);
        throw_wait_timeout("MRQ", id, v.proc, v.tni, deadline);
      }
    }
    relax_poll(spin);
  }
}

}  // namespace lmp::tofu
