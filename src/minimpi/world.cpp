#include "minimpi/world.h"

#include <algorithm>
#include <stdexcept>

namespace lmp::minimpi {

World::World(int nranks) : nranks_(nranks) {
  if (nranks < 1) throw std::invalid_argument("world size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  red_d_.resize(static_cast<std::size_t>(nranks));
  red_i_.resize(static_cast<std::size_t>(nranks));
  red_b_.resize(static_cast<std::size_t>(nranks));
}

void World::throw_poisoned() const {
  std::lock_guard lock(poison_mu_);
  throw PoisonedError("world poisoned: " + poison_reason_);
}

void World::poison(const std::string& reason) {
  {
    std::lock_guard lock(poison_mu_);
    if (poison_reason_.empty()) poison_reason_ = reason;
  }
  poisoned_.store(true, std::memory_order_release);
  // Wake every sleeper under its own lock so the store cannot race past
  // a waiter that checked the flag and is about to block.
  for (auto& box : mailboxes_) {
    std::lock_guard lock(box->mu);
    box->cv.notify_all();
  }
  std::lock_guard lock(barrier_mu_);
  barrier_cv_.notify_all();
}

void World::send(int src, int dst, int tag, std::span<const std::byte> payload) {
  if (dst < 0 || dst >= nranks_) throw std::out_of_range("send dst");
  if (poisoned()) throw_poisoned();
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard lock(box.mu);
    box.queue.push_back({src, tag, {payload.begin(), payload.end()}});
  }
  box.cv.notify_all();
}

std::vector<std::byte> World::recv(int dst, int src, int tag, int* actual_src) {
  if (dst < 0 || dst >= nranks_) throw std::out_of_range("recv dst");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock lock(box.mu);
  for (;;) {
    if (poisoned()) throw_poisoned();
    const auto it = std::find_if(box.queue.begin(), box.queue.end(),
                                 [&](const Envelope& e) {
                                   return e.tag == tag &&
                                          (src == kAnySource || e.src == src);
                                 });
    if (it != box.queue.end()) {
      std::vector<std::byte> payload = std::move(it->payload);
      if (actual_src != nullptr) *actual_src = it->src;
      box.queue.erase(it);
      return payload;
    }
    box.cv.wait(lock);
  }
}

std::vector<std::byte> World::sendrecv(int me, int dst, int src, int tag,
                                       std::span<const std::byte> payload) {
  // Sends are buffered (eager), so send-then-recv cannot deadlock.
  send(me, dst, tag, payload);
  return recv(me, src, tag);
}

void World::barrier(int rank) {
  (void)rank;
  std::unique_lock lock(barrier_mu_);
  if (poisoned()) throw_poisoned();
  const bool my_sense = barrier_sense_;
  if (++barrier_waiting_ == nranks_) {
    barrier_waiting_ = 0;
    barrier_sense_ = !barrier_sense_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(
        lock, [&] { return barrier_sense_ != my_sense || poisoned(); });
    if (barrier_sense_ == my_sense) throw_poisoned();
  }
}

template <typename T>
T World::allreduce_impl(int rank, T v,
                        const std::function<T(const std::vector<T>&)>& fold,
                        std::vector<T>& slots) {
  slots[static_cast<std::size_t>(rank)] = v;
  barrier(rank);
  const T result = fold(slots);
  barrier(rank);  // nobody re-deposits until everyone has read
  return result;
}

double World::allreduce_sum(int rank, double v) {
  return allreduce_impl<double>(rank, v,
                                [](const std::vector<double>& s) {
                                  double acc = 0;
                                  for (double x : s) acc += x;
                                  return acc;
                                },
                                red_d_);
}

std::int64_t World::allreduce_sum(int rank, std::int64_t v) {
  return allreduce_impl<std::int64_t>(rank, v,
                                      [](const std::vector<std::int64_t>& s) {
                                        std::int64_t acc = 0;
                                        for (auto x : s) acc += x;
                                        return acc;
                                      },
                                      red_i_);
}

bool World::allreduce_lor(int rank, bool v) {
  red_b_[static_cast<std::size_t>(rank)] = v ? 1 : 0;
  barrier(rank);
  bool any = false;
  for (int x : red_b_) any = any || (x != 0);
  barrier(rank);
  return any;
}

}  // namespace lmp::minimpi
