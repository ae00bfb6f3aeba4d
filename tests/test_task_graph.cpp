#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "threadpool/spin_pool.h"
#include "threadpool/task_graph.h"

namespace lmp::pool {
namespace {

/// Index of `id` in the completion order (-1 if absent).
int pos_of(const std::vector<int>& order, int id) {
  const auto it = std::find(order.begin(), order.end(), id);
  return it == order.end() ? -1 : static_cast<int>(it - order.begin());
}

TEST(TaskGraph, EmptyGraphRuns) {
  TaskGraph g;
  g.run(nullptr);
  EXPECT_EQ(g.size(), 0);
  EXPECT_TRUE(g.completion_order().empty());

  SpinThreadPool pool(3);
  g.run(&pool);
  EXPECT_TRUE(g.completion_order().empty());
}

TEST(TaskGraph, DiamondRespectsDependencies) {
  // a -> {b, c} -> d, run many times on a real pool: b and c may finish
  // in either order, but a is always first and d always last.
  TaskGraph g;
  std::atomic<int> calls{0};
  const int a = g.add("t.a", [&] { calls++; });
  const int b = g.add("t.b", [&] { calls++; });
  const int c = g.add("t.c", [&] { calls++; });
  const int d = g.add("t.d", [&] { calls++; });
  g.depend(b, a);
  g.depend(c, a);
  g.depend(d, b);
  g.depend(d, c);

  SpinThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    calls = 0;
    g.run(&pool);
    EXPECT_EQ(calls.load(), 4);
    const std::vector<int>& ord = g.completion_order();
    ASSERT_EQ(ord.size(), 4u);
    EXPECT_EQ(pos_of(ord, a), 0);
    EXPECT_EQ(pos_of(ord, d), 3);
    EXPECT_LT(pos_of(ord, a), pos_of(ord, b));
    EXPECT_LT(pos_of(ord, a), pos_of(ord, c));
    EXPECT_LT(pos_of(ord, b), pos_of(ord, d));
    EXPECT_LT(pos_of(ord, c), pos_of(ord, d));
  }
}

TEST(TaskGraph, SerialRunIsCanonicalTopologicalOrder) {
  // With no pool the drain claims ready nodes in ascending id order —
  // the canonical order the barrier executor would use.
  TaskGraph g;
  const int n0 = g.add("t", [] {});
  const int n1 = g.add("t", [] {});
  const int n2 = g.add("t", [] {});
  const int n3 = g.add("t", [] {});
  const int n4 = g.add("t", [] {});
  g.depend(n0, n4);  // n4 must come before n0 despite the id order
  g.depend(n2, n1);
  g.run(nullptr);
  const std::vector<int> expect = {n1, n2, n3, n4, n0};
  EXPECT_EQ(g.completion_order(), expect);
}

TEST(TaskGraph, DeterministicUnderShuffledWorkerTiming) {
  // Chain-of-layers graph whose nodes sleep pseudo-random amounts
  // (seeded, different per round): whatever order workers claim nodes,
  // every edge holds in the completion order and the canonically-reduced
  // result is identical across rounds.
  std::mt19937 rng(20260808u);
  std::uniform_int_distribution<int> jitter(0, 300);

  long canonical = -1;
  for (int round = 0; round < 20; ++round) {
    TaskGraph g;
    std::vector<long> cell(12, 0);
    std::vector<int> layer0, layer1;
    for (int i = 0; i < 6; ++i) {
      const int us = jitter(rng);
      layer0.push_back(g.add("t.l0", [&cell, i, us] {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
        cell[static_cast<std::size_t>(i)] = i + 1;
      }));
    }
    for (int i = 0; i < 6; ++i) {
      const int us = jitter(rng);
      layer1.push_back(g.add("t.l1", [&cell, i, us] {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
        cell[static_cast<std::size_t>(6 + i)] =
            10 * cell[static_cast<std::size_t>(i)];
      }));
      g.depend(layer1.back(), layer0[static_cast<std::size_t>(i)]);
    }
    std::vector<long> reduced(1, 0);
    const int join = g.add("t.join", [&] {
      // Fixed-order reduce: the determinism comes from here, not from
      // which worker finished first.
      for (const long v : cell) reduced[0] += v;
    });
    for (const int n : layer1) g.depend(join, n);

    SpinThreadPool pool(4);
    g.run(&pool);

    const std::vector<int>& ord = g.completion_order();
    ASSERT_EQ(ord.size(), 13u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_LT(pos_of(ord, layer0[static_cast<std::size_t>(i)]),
                pos_of(ord, layer1[static_cast<std::size_t>(i)]));
      EXPECT_LT(pos_of(ord, layer1[static_cast<std::size_t>(i)]),
                pos_of(ord, join));
    }
    if (canonical < 0) canonical = reduced[0];
    EXPECT_EQ(reduced[0], canonical);
  }
}

TEST(TaskGraph, ExceptionPropagatesWithType) {
  TaskGraph g;
  std::atomic<int> after{0};
  const int boom = g.add("t.boom", [] {
    throw std::domain_error("node failed");
  });
  const int next = g.add("t.next", [&] { after++; });
  g.depend(next, boom);

  SpinThreadPool pool(2);
  EXPECT_THROW(g.run(&pool), std::domain_error);
  // The dependent node was cancelled, not run.
  EXPECT_EQ(after.load(), 0);

  // The graph is reusable after a failure — and fails the same way.
  EXPECT_THROW(g.run(nullptr), std::domain_error);
}

TEST(TaskGraph, CycleIsRejected) {
  TaskGraph g;
  const int a = g.add("t.a", [] {});
  const int b = g.add("t.b", [] {});
  g.depend(a, b);
  g.depend(b, a);
  EXPECT_THROW(g.run(nullptr), std::logic_error);
}

TEST(TaskGraph, BadIdsAreRejected) {
  TaskGraph g;
  const int a = g.add("t.a", [] {});
  EXPECT_THROW(g.depend(a, a), std::invalid_argument);
  EXPECT_THROW(g.depend(a, 7), std::out_of_range);
  EXPECT_THROW(g.depend(-1, a), std::out_of_range);
}

TEST(TaskGraph, ReusableAcrossEpochs) {
  // The simulation reruns one graph every step of a neighbor epoch.
  TaskGraph g;
  int counter = 0;
  const int a = g.add("t.a", [&] { counter++; });
  const int b = g.add("t.b", [&] { counter++; });
  g.depend(b, a);
  SpinThreadPool pool(2);
  for (int step = 0; step < 100; ++step) g.run(&pool);
  EXPECT_EQ(counter, 200);
}

TEST(TaskGraph, ClearedGraphRebuildsToNewShape) {
  // The simulation clears and rebuilds its graph every neighbor epoch;
  // the reused node storage must not leak old edges into the new shape.
  TaskGraph g;
  const int a = g.add("t.a", [] {});
  const int b = g.add("t.b", [] {});
  const int c = g.add("t.c", [] {});
  g.depend(a, c);
  g.depend(b, c);
  g.run(nullptr);
  EXPECT_EQ(g.completion_order(), (std::vector<int>{c, a, b}));

  g.clear();
  EXPECT_EQ(g.size(), 0);
  int calls = 0;
  const int x = g.add("t.x", [&] { calls++; });
  const int y = g.add("t.y", [&] { calls++; });
  g.depend(x, y);
  SpinThreadPool pool(2);
  g.run(&pool);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(g.completion_order(), (std::vector<int>{y, x}));
  EXPECT_THROW(g.depend(x, 2), std::out_of_range);  // a cleared id
}

}  // namespace
}  // namespace lmp::pool
