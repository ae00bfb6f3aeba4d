#include "threadpool/forkjoin.h"

#include <stdexcept>

namespace lmp::pool {

ForkJoinPool::ForkJoinPool(int nthreads) : nthreads_(nthreads) {
  if (nthreads < 1) throw std::invalid_argument("pool needs >= 1 thread");
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int t = 1; t < nthreads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    ++generation_;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ForkJoinPool::worker_loop(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (stop_) return;
      fn = fn_;
    }
    (*fn)(tid);
    {
      std::lock_guard lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ForkJoinPool::parallel(const std::function<void(int)>& fn) {
  if (nthreads_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard lock(mu_);
    fn_ = &fn;
    remaining_ = nthreads_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  fn(0);
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
}

}  // namespace lmp::pool
