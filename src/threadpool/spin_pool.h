#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace lmp::pool {

/// Spin-lock thread pool (paper Sec. 3.3).
///
/// LAMMPS' communication is split into many short stages; OpenMP's
/// fork-join start/sync overhead (measured at 5.8 us on A64FX) dominates
/// them, so the paper keeps a pool of persistently-spinning workers whose
/// dispatch costs only 1.1 us. This class reproduces that design: workers
/// busy-wait on a generation counter; `parallel_static(fn)` publishes a
/// work descriptor, bumps the generation, takes part in the work itself,
/// and spin-waits for the remaining-worker count to hit zero.
///
/// Workers insert `yield` into the spin loop after a bounded number of
/// polls so the pool stays live on hosts with fewer cores than threads.
class SpinThreadPool {
 public:
  /// `nthreads` total workers including the calling thread; so
  /// SpinThreadPool(6) starts 5 background threads.
  explicit SpinThreadPool(int nthreads);
  ~SpinThreadPool();

  SpinThreadPool(const SpinThreadPool&) = delete;
  SpinThreadPool& operator=(const SpinThreadPool&) = delete;

  int nthreads() const { return nthreads_; }

  /// Thread t runs fn(t) exactly once, t in [0, nthreads); returns when
  /// all have. The fine-grained comm layer decides thread->message
  /// assignment with its load balancer, and the task graph's workers
  /// claim DAG nodes themselves, so the pool never splits work. Not
  /// reentrant.
  void parallel_static(const std::function<void(int)>& fn);

 private:
  void worker_loop(int tid);
  void run_generation();

  struct alignas(64) Job {
    const std::function<void(int)>* fn = nullptr;
    /// Publish timestamp (ns) when metrics are on, else 0. Workers use it
    /// to measure dispatch latency without their own gating decision.
    std::int64_t publish_ns = 0;
  };

  /// Cached per-worker instruments (dispatch-wait and run time per tid),
  /// resolved once at construction so the hot path never touches the
  /// registry mutex. The aggregated "pool.dispatch_wait_ns"/"pool.run_ns"
  /// histograms remain the roll-up view.
  struct WorkerMetrics {
    obs::Histogram* wait = nullptr;
    obs::Histogram* run = nullptr;
  };

  int nthreads_;
  /// Rank of the constructing thread — workers inherit it as their trace
  /// pid so their tracks group under the owning rank's process.
  int creator_pid_ = -1;
  std::vector<WorkerMetrics> per_worker_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> outstanding_{0};
  std::atomic<bool> stop_{false};
  Job job_;
};

}  // namespace lmp::pool
