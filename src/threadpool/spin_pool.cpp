#include "threadpool/spin_pool.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace lmp::pool {

namespace {

obs::Histogram& dispatch_wait_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("pool.dispatch_wait_ns");
  return h;
}

obs::Histogram& run_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("pool.run_ns");
  return h;
}

/// Per-worker views of the same two instruments ("pool.run_ns.w3"),
/// so async-executor idle time is attributable to a specific worker —
/// the aggregated histograms above stay as the roll-up. Registration
/// (mutex) happens once per distinct tid; hot paths use the cached
/// reference handed out here.
obs::Histogram& per_worker_hist(const char* base, int tid) {
  return obs::MetricsRegistry::instance().histogram(
      std::string(base) + ".w" + std::to_string(tid));
}
/// Spin briefly, then yield — the pool must stay responsive even when the
/// host has fewer hardware threads than pool workers.
inline void relax(int& polls) {
  if (++polls < 64) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  } else {
    polls = 0;
    std::this_thread::yield();
  }
}
}  // namespace

SpinThreadPool::SpinThreadPool(int nthreads) : nthreads_(nthreads) {
  if (nthreads < 1) throw std::invalid_argument("pool needs >= 1 thread");
  if (obs::trace_compiled_in()) {
    creator_pid_ = obs::Tracer::instance().current_pid();
  }
  per_worker_.resize(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    per_worker_[static_cast<std::size_t>(t)] = {
        &per_worker_hist("pool.dispatch_wait_ns", t),
        &per_worker_hist("pool.run_ns", t)};
  }
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int t = 1; t < nthreads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

SpinThreadPool::~SpinThreadPool() {
  stop_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  for (auto& w : workers_) w.join();
}

void SpinThreadPool::worker_loop(int tid) {
  LMP_TRACE_THREAD(creator_pid_, tid, "worker");
  std::uint64_t seen = 0;
  int polls = 0;
  for (;;) {
    while (generation_.load(std::memory_order_acquire) == seen) {
      relax(polls);
    }
    seen = generation_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;

    // publish_ns doubles as the "metrics were on at publish" flag, so
    // every worker of one generation makes the same recording decision.
    const std::int64_t published = job_.publish_ns;
    const std::int64_t run_t0 = published != 0 ? obs::now_ns() : 0;
    if (published != 0) {
      const auto wait_ns = static_cast<std::uint64_t>(run_t0 - published);
      dispatch_wait_hist().record(wait_ns);
      per_worker_[static_cast<std::size_t>(tid)].wait->record(wait_ns);
    }

    (*job_.fn)(tid);
    if (published != 0) {
      const auto ns = static_cast<std::uint64_t>(obs::now_ns() - run_t0);
      run_hist().record(ns);
      per_worker_[static_cast<std::size_t>(tid)].run->record(ns);
    }
    outstanding_.fetch_sub(1, std::memory_order_release);
  }
}

void SpinThreadPool::run_generation() {
  LMP_TRACE_SPAN(obs::TraceCat::kPool, "pool.parallel");
  job_.publish_ns = obs::metrics_enabled() ? obs::now_ns() : 0;
  outstanding_.store(nthreads_ - 1, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);

  // The caller is worker 0.
  const std::int64_t run_t0 = job_.publish_ns != 0 ? obs::now_ns() : 0;
  (*job_.fn)(0);
  if (job_.publish_ns != 0) {
    const auto ns = static_cast<std::uint64_t>(obs::now_ns() - run_t0);
    run_hist().record(ns);
    per_worker_[0].run->record(ns);  // the caller is worker 0
  }

  int polls = 0;
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    relax(polls);
  }
}

void SpinThreadPool::parallel_static(const std::function<void(int)>& fn) {
  job_.fn = &fn;
  run_generation();
}

}  // namespace lmp::pool
