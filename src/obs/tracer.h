#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/alloc_tracker.h"
#include "util/timer.h"

namespace lmp::obs {

/// Subsystem categories for runtime trace gating. Each instrumentation
/// site names one; `set_trace_categories` turns categories on and off
/// per subsystem without rebuilding.
enum class TraceCat : std::uint32_t {
  kSim = 1u << 0,   ///< per-step / per-stage spans (sim/)
  kComm = 1u << 1,  ///< NACK/retransmit/CRC protocol events (comm/)
  kTofu = 1u << 2,  ///< fabric puts and queue depths (tofu/)
  kPool = 1u << 3,  ///< thread-pool dispatch/run (threadpool/)
  kCkpt = 1u << 4,  ///< checkpoint and failover lifecycle (sim/)
  kServe = 1u << 5, ///< job-server lifecycle, sampler ticks, SLO edges
  kAlloc = 1u << 6, ///< heap allocation instants (obs/alloc_tracker)
};

inline constexpr std::uint32_t kAllTraceCats = 0x7Fu;

/// The mask drivers enable for "--trace": everything except kAlloc.
/// Alloc instants fire once per heap allocation — tens of thousands per
/// short run — and a ring flooded with them evicts the flow/span events
/// every downstream consumer (critical path, flow matching) needs, so
/// the allocation timeline is strictly opt-in (lmp_cli --trace-alloc).
inline constexpr std::uint32_t kDefaultTraceCats =
    kAllTraceCats & ~static_cast<std::uint32_t>(TraceCat::kAlloc);

const char* trace_cat_name(TraceCat c);

/// Nanoseconds since the process-wide trace epoch (steady clock).
std::int64_t now_ns();

namespace detail {
extern std::atomic<std::uint32_t> g_trace_cats;
extern std::atomic<bool> g_metrics_on;
}  // namespace detail

/// Hot-path gates: one relaxed atomic load each. Instrumentation sites
/// test these before touching the clock, so a disabled run pays a
/// branch and nothing else.
inline bool trace_enabled(TraceCat c) {
  return (detail::g_trace_cats.load(std::memory_order_relaxed) &
          static_cast<std::uint32_t>(c)) != 0;
}
inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}

void set_trace_categories(std::uint32_t mask);  ///< OR of TraceCat bits
void set_metrics_enabled(bool on);

/// True when the tree was built with LMP_TRACE=ON (instrumentation
/// macros expand to real code). With LMP_TRACE=OFF the tracer library
/// still exists — it just never receives events.
constexpr bool trace_compiled_in() {
#if defined(LMP_TRACE_ENABLED)
  return true;
#else
  return false;
#endif
}

/// One trace record. `name` must be a string with static storage
/// duration (a literal) — events store the pointer, never a copy, so
/// the hot path performs no allocation.
struct TraceEvent {
  enum Kind : std::uint8_t {
    kSpan,
    kInstant,
    kCounter,
    kFlowStart,   ///< Perfetto flow phase "s" (binds to enclosing span)
    kFlowStep,    ///< phase "t" — e.g. a retransmit on the same flow
    kFlowFinish,  ///< phase "f" with bp:e (binds to enclosing span)
  };
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;  ///< spans only
  const char* name = nullptr;
  TraceCat cat = TraceCat::kSim;
  std::int64_t value = 0;  ///< counters: the sample; flow events: the flow id
  Kind kind = kSpan;
};

/// One exported event with the identity of the thread that recorded it.
/// What `Tracer::snapshot_events` hands to post-run analyzers.
struct CollectedEvent {
  int pid = -1;
  int tid = 0;
  TraceEvent event;
};

/// The one name every message-flow event carries: Perfetto binds flow
/// phases s/t/f together only when id, cat, AND name all match, so the
/// sender (tofu put) and receiver (comm dispatcher) sides must agree.
inline constexpr const char* kMsgFlowName = "msg";

/// Per-rank, per-thread event tracer.
///
/// Every emitting thread owns a private fixed-capacity ring buffer
/// (single writer, no locks on the record path; the ring overwrites its
/// oldest events when full, so a runaway subsystem can never exhaust
/// memory). Threads announce who they are with `set_thread_identity`
/// (pid = simulated rank, tid = worker index) so the exported
/// Chrome/Perfetto `trace_event` JSON shows one process per rank and
/// one track per worker/progress thread.
///
/// Export is not synchronized with live writers: drain only after the
/// emitting threads have joined (the sim joins all rank/pool/progress
/// threads before `run_simulation` returns).
class Tracer {
 public:
  static Tracer& instance();

  /// Bind the calling thread to (pid, tid) with a human-readable track
  /// label. Replaces any previous identity of this thread. Threads that
  /// emit without identifying themselves get pid -1 ("driver").
  void set_thread_identity(int pid, int tid, const char* label);

  /// Rank ("pid") of the calling thread, or -1 when unidentified. Used
  /// to let helper threads (pool workers) inherit their creator's rank.
  int current_pid();

  void record_span(TraceCat c, const char* name, std::int64_t ts_ns,
                   std::int64_t dur_ns);
  void record_instant(TraceCat c, const char* name);
  void record_counter(TraceCat c, const char* name, std::int64_t value);
  /// Flow phase event (`phase` one of kFlowStart/kFlowStep/kFlowFinish).
  /// Emit it while the span it should visually bind to is open on the
  /// calling thread — Perfetto attaches a flow phase to the slice that
  /// encloses its timestamp on (pid, tid).
  void record_flow(TraceCat c, const char* name, std::uint64_t flow_id,
                   TraceEvent::Kind phase);

  /// Ring capacity (events) for buffers registered *after* this call.
  void set_buffer_capacity(std::size_t events);

  /// Drop every buffered event and registration; threads re-register on
  /// their next event. For back-to-back runs in one process (tests).
  void reset();

  /// Every surviving event across all thread buffers, sorted by
  /// (ts_ns, pid, tid) — the stable order the JSON export emits and the
  /// input the critical-path analyzer walks.
  std::vector<CollectedEvent> snapshot_events() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}), one pid per rank
  /// with process/thread-name metadata, "X" spans, "i" instants, "C"
  /// counters, and flow phases "s"/"t"/"f" bound by id; timestamps in
  /// microseconds as the format requires. Events are sorted by
  /// (timestamp, pid, tid) so equal-seed runs produce diffable traces.
  std::string export_chrome_json() const;
  bool export_chrome_json_file(const std::string& path) const;

  std::uint64_t events_recorded() const;
  std::uint64_t events_dropped() const;  ///< overwritten by ring wrap

 private:
  Tracer() = default;
};

/// RAII span: stamps the start on construction (when its category is
/// enabled) and records a complete event on destruction. With
/// LMP_TRACE=OFF this collapses to an empty object.
class TraceSpan {
 public:
#if defined(LMP_TRACE_ENABLED)
  TraceSpan(TraceCat c, const char* name) {
    if (trace_enabled(c)) {
      cat_ = c;
      name_ = name;
      t0_ = now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::instance().record_span(cat_, name_, t0_, now_ns() - t0_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceCat cat_ = TraceCat::kSim;
  const char* name_ = nullptr;
  std::int64_t t0_ = 0;
#else
  constexpr TraceSpan(TraceCat, const char*) {}
#endif
};

/// RAII helper: measures a scope's wall time into a util::StageTimer
/// stage. Doubles as a trace span: when the sim trace category is
/// enabled the same scope appears as a "stage:*" span on the owning
/// thread's track, so every existing timing site is a tracing site with
/// no edits. It is also an allocation-attribution scope — with
/// LMP_ALLOC_TRACE on, heap traffic inside the stage lands on the same
/// "stage:*" key in the alloc tracker, which is how the per-stage memory
/// columns and the zero-alloc guard's attribution table get their data
/// for free. Timer, span and alloc scope share util::stage_trace_name.
class ScopedStage {
 public:
  ScopedStage(util::StageTimer& t, util::Stage s)
      : timer_(t),
        stage_(s),
        span_(TraceCat::kSim, util::stage_trace_name(s)),
        alloc_scope_(util::stage_trace_name(s)) {}
  ~ScopedStage() { timer_.add(stage_, watch_.seconds()); }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  util::StageTimer& timer_;
  util::Stage stage_;
  TraceSpan span_;
  AllocScope alloc_scope_;
  util::WallTimer watch_;
};

// --- instrumentation macros -------------------------------------------
// Compile-time removable: LMP_TRACE=OFF turns every site into nothing.
#if defined(LMP_TRACE_ENABLED)
#define LMP_TRACE_CONCAT_INNER(a, b) a##b
#define LMP_TRACE_CONCAT(a, b) LMP_TRACE_CONCAT_INNER(a, b)
/// Scoped span covering the rest of the enclosing block.
#define LMP_TRACE_SPAN(cat, name)                                      \
  ::lmp::obs::TraceSpan LMP_TRACE_CONCAT(lmp_trace_span_, __COUNTER__)( \
      cat, name)
#define LMP_TRACE_INSTANT(cat, name)                             \
  do {                                                           \
    if (::lmp::obs::trace_enabled(cat))                          \
      ::lmp::obs::Tracer::instance().record_instant(cat, name);  \
  } while (0)
#define LMP_TRACE_COUNTER(cat, name, value)                              \
  do {                                                                   \
    if (::lmp::obs::trace_enabled(cat))                                  \
      ::lmp::obs::Tracer::instance().record_counter(cat, name, value);   \
  } while (0)
#define LMP_TRACE_THREAD(pid, tid, label) \
  ::lmp::obs::Tracer::instance().set_thread_identity(pid, tid, label)
/// Flow phase (s/t/f) with `id`; `phase` is a TraceEvent::Kind flow kind.
#define LMP_TRACE_FLOW(cat, name, id, phase)                                \
  do {                                                                     \
    if (::lmp::obs::trace_enabled(cat))                                     \
      ::lmp::obs::Tracer::instance().record_flow(cat, name, id, phase);     \
  } while (0)
#else
#define LMP_TRACE_SPAN(cat, name) \
  do {                            \
  } while (0)
#define LMP_TRACE_INSTANT(cat, name) \
  do {                               \
  } while (0)
#define LMP_TRACE_COUNTER(cat, name, value) \
  do {                                      \
  } while (0)
#define LMP_TRACE_THREAD(pid, tid, label) \
  do {                                    \
  } while (0)
#define LMP_TRACE_FLOW(cat, name, id, phase) \
  do {                                       \
  } while (0)
#endif

}  // namespace lmp::obs
