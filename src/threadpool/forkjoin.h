#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lmp::pool {

/// OpenMP-style fork-join runtime: persistent threads parked on a
/// condition variable, woken per parallel region and re-parked at the
/// implicit barrier. This reproduces the *structure* that makes OpenMP
/// regions expensive for the paper's tiny per-step workloads — two OS
/// wake/sleep transitions per region (5.8 us measured on A64FX versus
/// 1.1 us for the spin pool). `PoolOverheads` measures both on the host
/// and `perf::Calibration` carries the paper's constants.
class ForkJoinPool {
 public:
  explicit ForkJoinPool(int nthreads);
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  int nthreads() const { return nthreads_; }

  /// Run fn(tid) for tid in [0, nthreads) — an `omp parallel` region.
  void parallel(const std::function<void(int)>& fn);

 private:
  void worker_loop(int tid);

  int nthreads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
};

}  // namespace lmp::pool
