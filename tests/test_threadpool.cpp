#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "threadpool/forkjoin.h"
#include "threadpool/spin_pool.h"

namespace lmp::pool {
namespace {

TEST(SpinThreadPool, ReusableAcrossManyGenerations) {
  SpinThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_static([&](int) { total++; });
  }
  EXPECT_EQ(total.load(), 800);
}

TEST(SpinThreadPool, StaticRunsEachThreadOnce) {
  SpinThreadPool pool(6);
  std::vector<std::atomic<int>> per_thread(6);
  pool.parallel_static([&](int t) { per_thread[static_cast<std::size_t>(t)]++; });
  for (const auto& c : per_thread) EXPECT_EQ(c.load(), 1);
}

TEST(SpinThreadPool, StaticThreadIdsDistinct) {
  SpinThreadPool pool(4);
  std::vector<std::thread::id> ids(4);
  pool.parallel_static([&](int t) { ids[static_cast<std::size_t>(t)] = std::this_thread::get_id(); });
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(SpinThreadPool, SingleThreadPoolWorks) {
  SpinThreadPool pool(1);
  std::atomic<int> n{0};
  pool.parallel_static([&](int t) {
    EXPECT_EQ(t, 0);
    n++;
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(SpinThreadPool, InvalidSizeThrows) {
  EXPECT_THROW(SpinThreadPool(0), std::invalid_argument);
}

TEST(ForkJoinPool, ParallelRunsAllThreads) {
  ForkJoinPool pool(4);
  std::vector<std::atomic<int>> per_thread(4);
  pool.parallel([&](int t) { per_thread[static_cast<std::size_t>(t)]++; });
  for (const auto& c : per_thread) EXPECT_EQ(c.load(), 1);
}

TEST(ForkJoinPool, RepeatedRegions) {
  ForkJoinPool pool(2);
  std::atomic<int> total{0};
  for (int r = 0; r < 100; ++r) pool.parallel([&](int) { total++; });
  EXPECT_EQ(total.load(), 200);
}

TEST(ForkJoinPool, SingleThreadInline) {
  ForkJoinPool pool(1);
  std::atomic<int> n{0};
  pool.parallel([&](int t) {
    EXPECT_EQ(t, 0);
    n++;
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(ForkJoinPool, InvalidSizeThrows) {
  EXPECT_THROW(ForkJoinPool(0), std::invalid_argument);
}

TEST(SpinThreadPool, PerWorkerMetricsRecorded) {
  // Beyond the aggregated pool.dispatch_wait_ns / pool.run_ns roll-ups,
  // each worker records its own dispatch-wait and run time so a stuck
  // or starved worker is visible in the latency table.
  obs::set_metrics_enabled(true);
  struct MetricsOff {
    ~MetricsOff() { obs::set_metrics_enabled(false); }
  } guard;

  SpinThreadPool pool(3);
  auto& reg = obs::MetricsRegistry::instance();
  const std::uint64_t run0 = reg.histogram("pool.run_ns.w0").count();
  const std::uint64_t run1 = reg.histogram("pool.run_ns.w1").count();
  const std::uint64_t run2 = reg.histogram("pool.run_ns.w2").count();
  const std::uint64_t wait1 = reg.histogram("pool.dispatch_wait_ns.w1").count();

  for (int i = 0; i < 5; ++i) pool.parallel_static([](int) {});

  // Worker 0 is the caller: it records run time but never dispatch-waits.
  EXPECT_EQ(reg.histogram("pool.run_ns.w0").count(), run0 + 5);
  EXPECT_EQ(reg.histogram("pool.run_ns.w1").count(), run1 + 5);
  EXPECT_EQ(reg.histogram("pool.run_ns.w2").count(), run2 + 5);
  EXPECT_EQ(reg.histogram("pool.dispatch_wait_ns.w1").count(), wait1 + 5);
}

TEST(PoolOverheads, SpinPoolDispatchCheaperThanForkJoin) {
  // The paper's Sec. 3.3 motivation: pool dispatch (1.1 us on A64FX)
  // beats OpenMP fork-join (5.8 us). The ordering only shows when the
  // spinning workers actually own cores; on an oversubscribed host the
  // spin pool's yield loop is at the scheduler's mercy.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads to measure spin dispatch";
  }
  constexpr int kRegions = 300;
  SpinThreadPool spin(2);
  ForkJoinPool fj(2);
  // Warm up.
  for (int i = 0; i < 10; ++i) {
    spin.parallel_static([](int) {});
    fj.parallel([](int) {});
  }
  // Best of several interleaved rounds: under `ctest -j` other tests'
  // rank threads preempt one round now and then, and the minimum is the
  // dispatch cost that preemption did not inflate.
  double spin_us = 1e300;
  double fj_us = 1e300;
  for (int round = 0; round < 20; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRegions; ++i) spin.parallel_static([](int) {});
    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRegions; ++i) fj.parallel([](int) {});
    const auto t2 = std::chrono::steady_clock::now();
    spin_us = std::min(
        spin_us,
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kRegions);
    fj_us = std::min(
        fj_us,
        std::chrono::duration<double, std::micro>(t2 - t1).count() / kRegions);
  }
  EXPECT_LT(spin_us, fj_us);
}

}  // namespace
}  // namespace lmp::pool
