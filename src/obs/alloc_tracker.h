#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lmp::obs {

/// True when the tree was built with LMP_ALLOC_TRACE=ON (the global
/// operator new/delete are interposed and LMP_ALLOC_SCOPE expands to a
/// real RAII object). With LMP_ALLOC_TRACE=OFF the tracker library
/// still exists — counters just never move and a golden run is bitwise
/// identical to an uninstrumented build.
constexpr bool alloc_trace_compiled_in() {
#if defined(LMP_ALLOC_TRACE_ENABLED)
  return true;
#else
  return false;
#endif
}

/// Counters for one attribution scope, or a delta between two reads of
/// the same scope. `name` points at static-storage-duration strings
/// (scope-site literals), never a copy — snapshotting allocates nothing.
struct AllocSlotStats {
  const char* name = nullptr;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;        ///< usable bytes allocated
  std::uint64_t freed_bytes = 0;  ///< usable bytes released
};

/// Process-wide totals. `live_bytes` can dip negative transiently when
/// a reader races a free whose matching alloc predates the read — the
/// post-run readers (report, guard) only look after threads joined.
struct AllocTotals {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
  std::uint64_t freed_bytes = 0;
  std::int64_t live_bytes = 0;
  std::int64_t high_water_bytes = 0;
};

namespace alloc_detail {

/// One attribution slot: fixed storage, all-relaxed atomics. Slots are
/// never destroyed or reused, so hot paths cache raw pointers.
struct Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> freed_bytes{0};
  const char* name = nullptr;
};

/// Per-thread attribution state. Trivial members only — reading it from
/// inside operator new must never itself allocate or run constructors.
struct TlsState {
  Slot* current = nullptr;  ///< innermost active scope, null = unattributed
  bool in_hook = false;     ///< re-entrancy guard for the tracer instant
};

/// Accessor instead of a namespace-scope `extern thread_local`: GCC
/// routes cross-TU access to an extern TLS variable through an opaque
/// wrapper call whose result -fsanitize=null then doubts, reporting
/// spurious null-member-access on worker threads. A function-local
/// thread_local with constant initialization (trivial ctor/dtor)
/// compiles to a direct TLS-offset load — no wrapper, no guard.
inline TlsState& tls() {
  static thread_local TlsState s;
  return s;
}

extern std::atomic<bool> g_tracking_on;

}  // namespace alloc_detail

/// Runtime kill switch for the interposed hooks: when off they degrade
/// to plain malloc/free passthrough (one relaxed load). bench_alloc
/// uses this to measure the counting cost inside a single binary.
inline bool alloc_tracking_enabled() {
  return alloc_detail::g_tracking_on.load(std::memory_order_relaxed);
}
void set_alloc_tracking_enabled(bool on);

/// Process-wide allocation tracker. Interposed operator new/delete
/// (alloc_tracker.cpp, compiled under LMP_ALLOC_TRACE) attribute every
/// heap event to the calling thread's innermost AllocScope — per-stage
/// spans, dispatcher waits, served job runs — falling back to the built-in
/// "(unattributed)" slot, so per-scope sums always equal the globals.
///
/// Everything is fixed storage: a static slot table, no allocation on
/// registration or snapshot-into-buffer, which is what lets the hooks
/// run from the first static initializer to the last destructor and
/// lets the zero-alloc guard sample every step without perturbing the
/// thing it measures.
class AllocTracker {
 public:
  static constexpr std::size_t kMaxSlots = 64;

  static AllocTracker& instance();

  /// Find-or-create the slot for `name` (compared by content; `name`
  /// must outlive the process — pass literals). Never fails: when the
  /// table is full the unattributed slot absorbs the overflow.
  alloc_detail::Slot* slot(const char* name);

  alloc_detail::Slot* unattributed() { return &slots_[0]; }

  AllocTotals totals() const;

  /// All registered scopes with nonzero traffic, unattributed first,
  /// then registration order. Allocates — post-run use only.
  std::vector<AllocSlotStats> by_scope() const;

  /// Allocation-free snapshot into caller storage (guard hot loop).
  /// Writes min(slot_count, cap) entries, returns the count written.
  std::size_t snapshot_slots(AllocSlotStats* out, std::size_t cap) const;

  std::size_t slot_count() const {
    return nslots_.load(std::memory_order_acquire);
  }

  /// Zero every counter (registrations survive — cached slot pointers
  /// stay valid). For back-to-back runs in one process.
  void reset_counters();

  // Hook-side accounting (public so the interposed operators can call
  // without friend gymnastics; not for general use).
  void on_alloc(std::size_t usable_bytes);
  void on_free(std::size_t usable_bytes);

 private:
  AllocTracker();

  alloc_detail::Slot slots_[kMaxSlots];
  std::atomic<std::size_t> nslots_{0};
  std::mutex reg_mu_;

  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> freed_bytes_{0};
  std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> high_water_{0};
};

/// RAII attribution scope: allocations by this thread inside the scope
/// land on `name`'s slot. Nests — the innermost scope wins, the
/// destructor restores the outer one. With LMP_ALLOC_TRACE=OFF this is
/// an empty object.
class AllocScope {
 public:
#if defined(LMP_ALLOC_TRACE_ENABLED)
  explicit AllocScope(const char* name)
      : prev_(alloc_detail::tls().current) {
    alloc_detail::tls().current = AllocTracker::instance().slot(name);
  }
  ~AllocScope() { alloc_detail::tls().current = prev_; }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  alloc_detail::Slot* prev_;
#else
  constexpr explicit AllocScope(const char*) {}
#endif
};

#if defined(LMP_ALLOC_TRACE_ENABLED)
#define LMP_ALLOC_CONCAT_INNER(a, b) a##b
#define LMP_ALLOC_CONCAT(a, b) LMP_ALLOC_CONCAT_INNER(a, b)
/// Attribute heap traffic for the rest of the enclosing block to `name`.
#define LMP_ALLOC_SCOPE(name)                                          \
  ::lmp::obs::AllocScope LMP_ALLOC_CONCAT(lmp_alloc_scope_, __COUNTER__)( \
      name)
#else
#define LMP_ALLOC_SCOPE(name) \
  do {                        \
  } while (0)
#endif

/// Result of one steady-state zero-alloc guard run (see AllocGuard).
struct AllocGuardReport {
  bool enabled = false;
  bool tracker_available = false;  ///< false when LMP_ALLOC_TRACE=OFF
  int warmup_steps = 0;
  int steps_checked = 0;
  int steps_with_allocs = 0;
  int first_alloc_step = -1;  ///< 0-based step index, -1 = none
  std::uint64_t post_warmup_allocs = 0;
  std::uint64_t post_warmup_bytes = 0;
  /// Per-scope deltas over the post-warmup window, nonzero rows only.
  std::vector<AllocSlotStats> rows;

  bool passed() const {
    return !enabled || !tracker_available || steps_with_allocs == 0;
  }
};

/// Steady-state zero-alloc guard: arm before the step loop, feed each
/// completed step index, read the verdict after. Steps [0, warmup) are
/// the warmup window; every later step must allocate nothing or the
/// guard fails with a per-scope attribution of the post-warmup window.
/// on_step performs two relaxed loads and integer math — it never
/// allocates, so it cannot trip itself.
class AllocGuard {
 public:
  /// warmup < 0 picks the default: total_steps / 2.
  void arm(int warmup, int total_steps);
  void on_step(int step);  ///< 0-based index of the step just completed
  AllocGuardReport report() const;  ///< allocates; call after the loop

 private:
  void take_baseline();

  bool armed_ = false;
  int warmup_ = 0;
  int steps_checked_ = 0;
  int steps_with_allocs_ = 0;
  int first_alloc_step_ = -1;
  std::uint64_t last_allocs_ = 0;
  std::uint64_t last_bytes_ = 0;
  std::uint64_t post_allocs_ = 0;
  std::uint64_t post_bytes_ = 0;
  bool baseline_taken_ = false;
  AllocSlotStats baseline_[AllocTracker::kMaxSlots];
  std::size_t baseline_n_ = 0;
};

/// Render an alloc-guard verdict: one summary line (PASS / FAIL with
/// the post-warmup totals) plus the per-scope attribution table of the
/// post-warmup window when anything allocated. Empty string when the
/// guard never ran.
std::string format_alloc_guard_table(const AllocGuardReport& r);

}  // namespace lmp::obs
