#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/alloc_tracker.h"

namespace lmp::obs {
namespace {

std::uint64_t slot_allocs(const char* name) {
  return AllocTracker::instance().slot(name)->allocs.load(
      std::memory_order_relaxed);
}

std::uint64_t slot_frees(const char* name) {
  return AllocTracker::instance().slot(name)->frees.load(
      std::memory_order_relaxed);
}

TEST(AllocTracker, SlotsRegisterByContentNotPointer) {
  AllocTracker& t = AllocTracker::instance();
  const std::string a = "test:same-content";
  const std::string b = "test:same-content";
  ASSERT_NE(a.c_str(), b.c_str());  // distinct storage, same content
  EXPECT_EQ(t.slot(a.c_str()), t.slot(b.c_str()));
  EXPECT_EQ(t.slot("test:same-content"), t.slot(a.c_str()));
  EXPECT_STREQ(t.unattributed()->name, "(unattributed)");
}

TEST(AllocTracker, ManualAccountingFeedsTotalsAndHighWater) {
  AllocTracker& t = AllocTracker::instance();
  const AllocTotals t0 = t.totals();
  t.on_alloc(10000);
  t.on_alloc(20000);
  const AllocTotals t1 = t.totals();
  EXPECT_EQ(t1.allocs, t0.allocs + 2);
  EXPECT_EQ(t1.bytes, t0.bytes + 30000);
  EXPECT_EQ(t1.live_bytes, t0.live_bytes + 30000);
  EXPECT_GE(t1.high_water_bytes, t0.live_bytes + 30000);
  t.on_free(10000);
  t.on_free(20000);
  const AllocTotals t2 = t.totals();
  EXPECT_EQ(t2.frees, t1.frees + 2);
  EXPECT_EQ(t2.live_bytes, t0.live_bytes);
  // The high-water mark never recedes.
  EXPECT_GE(t2.high_water_bytes, t1.high_water_bytes);
}

TEST(AllocTracker, PerScopeSumsMatchGlobals) {
  AllocTracker& t = AllocTracker::instance();
  AllocSlotStats buf[AllocTracker::kMaxSlots];
  const std::size_t n = t.snapshot_slots(buf, AllocTracker::kMaxSlots);
  const AllocTotals g = t.totals();
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    allocs += buf[i].allocs;
    frees += buf[i].frees;
    bytes += buf[i].bytes;
  }
  // "(unattributed)" absorbs everything outside a scope, so the scope
  // sums always reconstruct the global counters exactly.
  EXPECT_EQ(allocs, g.allocs);
  EXPECT_EQ(frees, g.frees);
  EXPECT_EQ(bytes, g.bytes);
}

TEST(AllocTracker, ScopeAttributionNestsAndRestores) {
  if (!alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: no interposed operators";
  }
  const std::uint64_t outer0 = slot_allocs("test:outer");
  const std::uint64_t inner0 = slot_allocs("test:inner");
  void* p1 = nullptr;
  void* p2 = nullptr;
  void* p3 = nullptr;
  {
    AllocScope outer("test:outer");
    p1 = ::operator new(100);
    {
      AllocScope inner("test:inner");
      p2 = ::operator new(100);
    }
    p3 = ::operator new(100);  // inner scope closed: back on the outer slot
  }
  EXPECT_EQ(slot_allocs("test:outer"), outer0 + 2);
  EXPECT_EQ(slot_allocs("test:inner"), inner0 + 1);
  ::operator delete(p1);
  ::operator delete(p2);
  ::operator delete(p3);
}

TEST(AllocTracker, ThreadsAttributeToTheirOwnScope) {
  if (!alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: no interposed operators";
  }
  constexpr int kRounds = 1000;
  const std::uint64_t a0 = slot_allocs("test:thread-a");
  const std::uint64_t b0 = slot_allocs("test:thread-b");
  const std::uint64_t af0 = slot_frees("test:thread-a");
  const std::uint64_t bf0 = slot_frees("test:thread-b");
  const auto worker = [](const char* scope_name) {
    AllocScope scope(scope_name);
    for (int i = 0; i < kRounds; ++i) {
      void* p = ::operator new(64);
      ::operator delete(p);
    }
  };
  std::thread ta(worker, "test:thread-a");
  std::thread tb(worker, "test:thread-b");
  ta.join();
  tb.join();
  // The scope is thread-local: interleaved allocations from the sibling
  // thread never leak into the other slot.
  EXPECT_EQ(slot_allocs("test:thread-a"), a0 + kRounds);
  EXPECT_EQ(slot_allocs("test:thread-b"), b0 + kRounds);
  EXPECT_EQ(slot_frees("test:thread-a"), af0 + kRounds);
  EXPECT_EQ(slot_frees("test:thread-b"), bf0 + kRounds);
}

TEST(AllocGuard, PassesWhenPostWarmupStepsAreClean) {
  AllocGuard g;
  g.arm(0, 4);
  for (int s = 0; s < 4; ++s) g.on_step(s);
  const AllocGuardReport r = g.report();
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.tracker_available, alloc_trace_compiled_in());
  EXPECT_TRUE(r.passed());
  if (alloc_trace_compiled_in()) {
    EXPECT_EQ(r.steps_checked, 4);
    EXPECT_EQ(r.steps_with_allocs, 0);
    EXPECT_EQ(r.first_alloc_step, -1);
  }
}

TEST(AllocGuard, WarmupAllocationsAreForgiven) {
  if (!alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: guard disarms itself";
  }
  AllocTracker& t = AllocTracker::instance();
  AllocGuard g;
  g.arm(2, 6);
  // Steps 0 and 1 allocate heavily — that is what warmup is for.
  t.on_alloc(4096);
  g.on_step(0);
  t.on_alloc(4096);
  g.on_step(1);
  for (int s = 2; s < 6; ++s) g.on_step(s);
  t.on_free(8192);
  const AllocGuardReport r = g.report();
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.warmup_steps, 2);
  EXPECT_EQ(r.steps_checked, 4);
  EXPECT_EQ(r.post_warmup_allocs, 0u);
}

TEST(AllocGuard, FailsWithAttributionOnPostWarmupAllocs) {
  if (!alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: guard disarms itself";
  }
  AllocTracker& t = AllocTracker::instance();
  AllocGuard g;
  g.arm(2, 6);
  g.on_step(0);
  g.on_step(1);
  g.on_step(2);
  {
    AllocScope scope("test:guard-leak");
    t.on_alloc(50);
    g.on_step(3);
    t.on_alloc(50);
    g.on_step(4);
    t.on_free(100);
  }
  g.on_step(5);
  const AllocGuardReport r = g.report();
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.steps_checked, 4);
  EXPECT_EQ(r.steps_with_allocs, 2);
  EXPECT_EQ(r.first_alloc_step, 3);
  EXPECT_EQ(r.post_warmup_allocs, 2u);
  EXPECT_EQ(r.post_warmup_bytes, 100u);
  bool found = false;
  for (const AllocSlotStats& row : r.rows) {
    if (std::string(row.name) == "test:guard-leak") {
      found = true;
      EXPECT_EQ(row.allocs, 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AllocGuard, WarmupLongerThanRunChecksNothing) {
  AllocGuard g;
  g.arm(10, 4);
  for (int s = 0; s < 4; ++s) g.on_step(s);
  const AllocGuardReport r = g.report();
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.steps_checked, 0);
  if (alloc_trace_compiled_in()) {
    EXPECT_EQ(r.warmup_steps, 10);
  }
}

TEST(AllocGuard, DefaultWarmupIsHalfTheRun) {
  if (!alloc_trace_compiled_in()) {
    GTEST_SKIP() << "LMP_ALLOC_TRACE=OFF: guard disarms itself";
  }
  AllocGuard g;
  g.arm(-1, 10);
  EXPECT_EQ(g.report().warmup_steps, 5);
}

TEST(AllocGuard, FormatTableRendersVerdictAndScopes) {
  AllocGuardReport r;
  EXPECT_EQ(obs::format_alloc_guard_table(r), "");  // never armed

  r.enabled = true;
  r.tracker_available = true;
  r.warmup_steps = 5;
  r.steps_checked = 5;
  const std::string pass = obs::format_alloc_guard_table(r);
  EXPECT_NE(pass.find("PASS"), std::string::npos);

  r.steps_with_allocs = 2;
  r.first_alloc_step = 7;
  r.post_warmup_allocs = 12;
  AllocSlotStats row;
  row.name = "stage:Comm";
  row.allocs = 12;
  row.bytes = 4096;
  r.rows.push_back(row);
  const std::string fail = obs::format_alloc_guard_table(r);
  EXPECT_NE(fail.find("FAIL"), std::string::npos);
  EXPECT_NE(fail.find("stage:Comm"), std::string::npos);
}

}  // namespace
}  // namespace lmp::obs
