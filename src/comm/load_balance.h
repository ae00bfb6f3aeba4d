#pragma once

#include <vector>

namespace lmp::comm {

/// One communication task for the balancer: a direction with its
/// estimated message size and network hop count.
struct CommTask {
  int dir;           ///< direction index
  double bytes;      ///< expected message size
  int hops;          ///< logical-torus hops (1 face / 2 edge / 3 corner)
};

/// Assign directions to communication threads (paper Fig. 10): each rank
/// has at most 6 comm threads but 13 (or 26) neighbors with very uneven
/// costs — faces carry the most data over 1 hop, corners the least over
/// 3 hops. We model per-task cost as
///
///   cost = bytes + hop_penalty_bytes * hops
///
/// and assign tasks to the currently least-loaded thread, largest task
/// first (LPT greedy — within 4/3 of optimal makespan).
///
/// Returns thread index per task (parallel to `tasks`).
std::vector<int> balance_tasks(const std::vector<CommTask>& tasks, int nthreads,
                               double hop_penalty_bytes = 256.0);

/// Round-robin baseline (dir i -> thread i % nthreads) the balancer is
/// measured against in tests.
std::vector<int> round_robin(const std::vector<CommTask>& tasks, int nthreads);

/// Makespan (max per-thread summed cost) of an assignment — the quantity
/// the balancer minimizes; tests judge assignments with it.
double makespan(const std::vector<CommTask>& tasks,
                const std::vector<int>& assignment, int nthreads,
                double hop_penalty_bytes = 256.0);

}  // namespace lmp::comm
