// Allocation tracker core + (under LMP_ALLOC_TRACE) the interposed
// global operator new/delete.
//
// Interposition strategy: every new forwards to malloc, every delete to
// free, with byte accounting via malloc_usable_size so alloc and free
// sides agree without a size header of our own (glibc guarantees the
// call is valid for malloc/aligned_alloc/posix_memalign memory, and the
// sanitizer runtimes intercept it consistently with their own malloc).
// The hooks touch only fixed storage and relaxed atomics, so they are
// safe from the first static initializer to the last destructor; the
// only code path that could itself allocate — the Perfetto alloc
// instant — is behind a per-thread re-entrancy latch.

#include "obs/alloc_tracker.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "obs/tracer.h"
#include "util/table_printer.h"

#if defined(LMP_ALLOC_TRACE_ENABLED)
#include <malloc.h>

#include <cstdlib>
#include <new>
#endif

namespace lmp::obs {

namespace alloc_detail {
std::atomic<bool> g_tracking_on{true};
}  // namespace alloc_detail

void set_alloc_tracking_enabled(bool on) {
  alloc_detail::g_tracking_on.store(on, std::memory_order_relaxed);
}

AllocTracker::AllocTracker() {
  slots_[0].name = "(unattributed)";
  nslots_.store(1, std::memory_order_release);
}

AllocTracker& AllocTracker::instance() {
  // Placement-new into static storage: a heap `new` here would recurse
  // into the hook that called us, and a plain static object would be
  // destroyed while late frees still need the counters. Never dtor'd.
  alignas(AllocTracker) static unsigned char storage[sizeof(AllocTracker)];
  static AllocTracker* t = ::new (static_cast<void*>(storage)) AllocTracker();
  return *t;
}

alloc_detail::Slot* AllocTracker::slot(const char* name) {
  const std::size_t n = nslots_.load(std::memory_order_acquire);
  // Fast path: scope sites pass literals, so pointer equality usually
  // hits; content compare catches the same literal from another TU.
  for (std::size_t i = 0; i < n; ++i) {
    if (slots_[i].name == name) return &slots_[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (std::strcmp(slots_[i].name, name) == 0) return &slots_[i];
  }
  std::lock_guard<std::mutex> lock(reg_mu_);
  const std::size_t m = nslots_.load(std::memory_order_acquire);
  for (std::size_t i = n; i < m; ++i) {
    if (std::strcmp(slots_[i].name, name) == 0) return &slots_[i];
  }
  if (m >= kMaxSlots) return &slots_[0];  // full: overflow is unattributed
  slots_[m].name = name;
  nslots_.store(m + 1, std::memory_order_release);
  return &slots_[m];
}

AllocTotals AllocTracker::totals() const {
  AllocTotals t;
  t.allocs = allocs_.load(std::memory_order_relaxed);
  t.frees = frees_.load(std::memory_order_relaxed);
  t.bytes = bytes_.load(std::memory_order_relaxed);
  t.freed_bytes = freed_bytes_.load(std::memory_order_relaxed);
  t.live_bytes = live_.load(std::memory_order_relaxed);
  t.high_water_bytes = high_water_.load(std::memory_order_relaxed);
  return t;
}

std::size_t AllocTracker::snapshot_slots(AllocSlotStats* out,
                                         std::size_t cap) const {
  const std::size_t n =
      std::min(nslots_.load(std::memory_order_acquire), cap);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].name = slots_[i].name;
    out[i].allocs = slots_[i].allocs.load(std::memory_order_relaxed);
    out[i].frees = slots_[i].frees.load(std::memory_order_relaxed);
    out[i].bytes = slots_[i].bytes.load(std::memory_order_relaxed);
    out[i].freed_bytes =
        slots_[i].freed_bytes.load(std::memory_order_relaxed);
  }
  return n;
}

std::vector<AllocSlotStats> AllocTracker::by_scope() const {
  AllocSlotStats buf[kMaxSlots];
  const std::size_t n = snapshot_slots(buf, kMaxSlots);
  std::vector<AllocSlotStats> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (buf[i].allocs != 0 || buf[i].frees != 0) out.push_back(buf[i]);
  }
  return out;
}

void AllocTracker::reset_counters() {
  const std::size_t n = nslots_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].allocs.store(0, std::memory_order_relaxed);
    slots_[i].frees.store(0, std::memory_order_relaxed);
    slots_[i].bytes.store(0, std::memory_order_relaxed);
    slots_[i].freed_bytes.store(0, std::memory_order_relaxed);
  }
  allocs_.store(0, std::memory_order_relaxed);
  frees_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  freed_bytes_.store(0, std::memory_order_relaxed);
  live_.store(0, std::memory_order_relaxed);
  high_water_.store(0, std::memory_order_relaxed);
}

void AllocTracker::on_alloc(std::size_t usable_bytes) {
  alloc_detail::Slot* s = alloc_detail::tls().current;
  if (s == nullptr) s = &slots_[0];
  s->allocs.fetch_add(1, std::memory_order_relaxed);
  s->bytes.fetch_add(usable_bytes, std::memory_order_relaxed);
  allocs_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(usable_bytes, std::memory_order_relaxed);
  const std::int64_t live =
      live_.fetch_add(static_cast<std::int64_t>(usable_bytes),
                      std::memory_order_relaxed) +
      static_cast<std::int64_t>(usable_bytes);
  std::int64_t prev = high_water_.load(std::memory_order_relaxed);
  while (live > prev && !high_water_.compare_exchange_weak(
                            prev, live, std::memory_order_relaxed)) {
  }
}

void AllocTracker::on_free(std::size_t usable_bytes) {
  alloc_detail::Slot* s = alloc_detail::tls().current;
  if (s == nullptr) s = &slots_[0];
  s->frees.fetch_add(1, std::memory_order_relaxed);
  s->freed_bytes.fetch_add(usable_bytes, std::memory_order_relaxed);
  frees_.fetch_add(1, std::memory_order_relaxed);
  freed_bytes_.fetch_add(usable_bytes, std::memory_order_relaxed);
  live_.fetch_sub(static_cast<std::int64_t>(usable_bytes),
                  std::memory_order_relaxed);
}

// --- steady-state guard -----------------------------------------------

void AllocGuard::arm(int warmup, int total_steps) {
  armed_ = alloc_trace_compiled_in();
  warmup_ = warmup >= 0 ? warmup : total_steps / 2;
  steps_checked_ = 0;
  steps_with_allocs_ = 0;
  first_alloc_step_ = -1;
  post_allocs_ = 0;
  post_bytes_ = 0;
  baseline_taken_ = false;
  baseline_n_ = 0;
  if (!armed_) return;
  const AllocTotals t = AllocTracker::instance().totals();
  last_allocs_ = t.allocs;
  last_bytes_ = t.bytes;
  if (warmup_ == 0) take_baseline();
}

void AllocGuard::take_baseline() {
  baseline_n_ = AllocTracker::instance().snapshot_slots(
      baseline_, AllocTracker::kMaxSlots);
  baseline_taken_ = true;
}

void AllocGuard::on_step(int step) {
  if (!armed_) return;
  const AllocTotals t = AllocTracker::instance().totals();
  if (step < warmup_) {
    last_allocs_ = t.allocs;
    last_bytes_ = t.bytes;
    if (step == warmup_ - 1) take_baseline();
    return;
  }
  if (!baseline_taken_) take_baseline();  // warmup window shorter than run
  const std::uint64_t d_allocs = t.allocs - last_allocs_;
  const std::uint64_t d_bytes = t.bytes - last_bytes_;
  last_allocs_ = t.allocs;
  last_bytes_ = t.bytes;
  ++steps_checked_;
  if (d_allocs != 0) {
    ++steps_with_allocs_;
    if (first_alloc_step_ < 0) first_alloc_step_ = step;
    post_allocs_ += d_allocs;
    post_bytes_ += d_bytes;
  }
}

AllocGuardReport AllocGuard::report() const {
  AllocGuardReport r;
  r.enabled = true;
  r.tracker_available = armed_;
  r.warmup_steps = warmup_;
  r.steps_checked = steps_checked_;
  r.steps_with_allocs = steps_with_allocs_;
  r.first_alloc_step = first_alloc_step_;
  r.post_warmup_allocs = post_allocs_;
  r.post_warmup_bytes = post_bytes_;
  if (!armed_ || !baseline_taken_) return r;
  AllocSlotStats now[AllocTracker::kMaxSlots];
  const std::size_t n =
      AllocTracker::instance().snapshot_slots(now, AllocTracker::kMaxSlots);
  for (std::size_t i = 0; i < n; ++i) {
    AllocSlotStats d = now[i];
    if (i < baseline_n_) {
      d.allocs -= baseline_[i].allocs;
      d.frees -= baseline_[i].frees;
      d.bytes -= baseline_[i].bytes;
      d.freed_bytes -= baseline_[i].freed_bytes;
    }
    if (d.allocs != 0 || d.frees != 0) r.rows.push_back(d);
  }
  return r;
}

std::string format_alloc_guard_table(const AllocGuardReport& r) {
  std::string out;
  if (!r.enabled) return out;
  if (!r.tracker_available) {
    return "alloc guard: tracker not compiled in (build with "
           "-DLMP_ALLOC_TRACE=ON) — nothing checked\n";
  }
  out += "alloc guard: warmup " + std::to_string(r.warmup_steps) +
         " steps, checked " + std::to_string(r.steps_checked) + " steps: " +
         (r.passed()
              ? "PASS — zero steady-state allocations\n"
              : "FAIL — " + std::to_string(r.steps_with_allocs) +
                    " steps allocated (first at step " +
                    std::to_string(r.first_alloc_step) + "; " +
                    std::to_string(r.post_warmup_allocs) + " allocs, " +
                    std::to_string(r.post_warmup_bytes) +
                    " bytes past warmup)\n");
  if (!r.rows.empty()) {
    util::TablePrinter t({"post-warmup scope", "allocs", "frees", "bytes"});
    for (const AllocSlotStats& s : r.rows) {
      t.add_row({s.name, std::to_string(s.allocs), std::to_string(s.frees),
                 std::to_string(s.bytes)});
    }
    out += t.to_string();
  }
  return out;
}

}  // namespace lmp::obs

// --- interposed global operators --------------------------------------

#if defined(LMP_ALLOC_TRACE_ENABLED)

namespace {

using lmp::obs::AllocTracker;
using lmp::obs::TraceCat;

void account_alloc(void* p) {
  if (p == nullptr) return;
  AllocTracker::instance().on_alloc(::malloc_usable_size(p));
  // The tracer's record path can itself allocate (first-touch thread
  // buffer registration); the latch stops the recursion at one level.
  lmp::obs::alloc_detail::TlsState& tls = lmp::obs::alloc_detail::tls();
  if (lmp::obs::trace_enabled(TraceCat::kAlloc) && !tls.in_hook) {
    tls.in_hook = true;
    lmp::obs::Tracer::instance().record_instant(TraceCat::kAlloc, "alloc");
    tls.in_hook = false;
  }
}

void account_free(void* p) {
  if (p == nullptr) return;
  AllocTracker::instance().on_free(::malloc_usable_size(p));
}

void* tracked_alloc(std::size_t n) {
  void* p = ::malloc(n != 0 ? n : 1);
  while (p == nullptr) {
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) return nullptr;
    h();
    p = ::malloc(n != 0 ? n : 1);
  }
  if (lmp::obs::alloc_tracking_enabled()) account_alloc(p);
  return p;
}

void* tracked_alloc_aligned(std::size_t n, std::size_t align) {
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  while (::posix_memalign(&p, align, n != 0 ? n : align) != 0) {
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) return nullptr;
    h();
  }
  if (lmp::obs::alloc_tracking_enabled()) account_alloc(p);
  return p;
}

void tracked_free(void* p) {
  if (p == nullptr) return;
  if (lmp::obs::alloc_tracking_enabled()) account_free(p);
  ::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = tracked_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  void* p = tracked_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return tracked_alloc(n);
}

void* operator new(std::size_t n, std::align_val_t al) {
  void* p = tracked_alloc_aligned(n, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n, std::align_val_t al) {
  void* p = tracked_alloc_aligned(n, static_cast<std::size_t>(al));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return tracked_alloc_aligned(n, static_cast<std::size_t>(al));
}

void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return tracked_alloc_aligned(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  tracked_free(p);
}

#endif  // LMP_ALLOC_TRACE_ENABLED
