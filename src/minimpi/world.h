#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lmp::minimpi {

/// Wildcard source for recv (MPI_ANY_SOURCE analogue).
inline constexpr int kAnySource = -1;

/// The world was poisoned (`World::poison`): a rank failed and the run
/// is being torn down, so blocking collectives/receives throw instead of
/// waiting forever for a peer that will never arrive.
class PoisonedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A two-sided, tag-matched message layer over shared memory — our stand-
/// in for the MPI stack that the paper's *baseline* LAMMPS communicates
/// through. It is deliberately "heavy" in structure (envelope queues, tag
/// matching, payload copies in and out of mailbox storage); the
/// performance model charges it the correspondingly larger per-message
/// software overhead T_inj that Fig. 6 measures.
///
/// One `World` is shared by every rank thread of a simulated job.
class World {
 public:
  explicit World(int nranks);

  int size() const { return nranks_; }

  /// Blocking tagged send (eager: copies the payload into the mailbox).
  void send(int src, int dst, int tag, std::span<const std::byte> payload);

  /// Blocking tagged receive; matches (src|any, tag) in posting order.
  std::vector<std::byte> recv(int dst, int src, int tag,
                              int* actual_src = nullptr);

  /// Combined exchange used by the 3-stage pattern: send to `dst` and
  /// receive from `src` with the same tag, deadlock-free.
  std::vector<std::byte> sendrecv(int me, int dst, int src, int tag,
                                  std::span<const std::byte> payload);

  /// Sense-reversing barrier over all ranks.
  void barrier(int rank);

  // --- reductions (all ranks must call with the same op sequence) -----
  double allreduce_sum(int rank, double v);
  std::int64_t allreduce_sum(int rank, std::int64_t v);
  /// Logical-or reduction — the EAM neighbor-rebuild check (`check yes`
  /// in Table 2): "did any atom on any rank move beyond half the skin?"
  bool allreduce_lor(int rank, bool v);

  /// Poison the world: every blocked and every future send/recv/barrier/
  /// reduction throws PoisonedError naming `reason`. Used by the failover
  /// path so one failing rank promptly unblocks its peers instead of
  /// deadlocking them in a collective. Idempotent (first reason wins) and
  /// permanent — barrier state may be mid-flight when the poison lands,
  /// so a poisoned World must be discarded, never reused.
  void poison(const std::string& reason);
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

 private:
  struct Envelope {
    int src;
    int tag;
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Envelope> queue;
  };

  template <typename T>
  T allreduce_impl(int rank, T v, const std::function<T(const std::vector<T>&)>& fold,
                   std::vector<T>& slots);

  [[noreturn]] void throw_poisoned() const;

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Barrier state.
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  bool barrier_sense_ = false;

  // Reduction scratch (guarded by the barrier around deposits).
  std::vector<double> red_d_;
  std::vector<std::int64_t> red_i_;
  std::vector<int> red_b_;

  // Poison state.
  std::atomic<bool> poisoned_{false};
  mutable std::mutex poison_mu_;
  std::string poison_reason_;
};

}  // namespace lmp::minimpi
