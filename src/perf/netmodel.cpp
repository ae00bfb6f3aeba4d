#include "perf/netmodel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lmp::perf {

namespace {
Calibration g_default;
}

const Calibration& default_calibration() { return g_default; }

CommConfig CommConfig::ref_mpi() {
  CommConfig c;
  c.pattern = PatternKind::kThreeStage;
  c.api = Api::kMpi;
  c.ntnis = 1;
  c.comm_threads = 1;
  c.runtime = Runtime::kOpenMp;
  return c;
}

CommConfig CommConfig::mpi_p2p() {
  CommConfig c;
  c.pattern = PatternKind::kP2p;
  c.api = Api::kMpi;
  c.ntnis = 1;
  c.comm_threads = 1;
  c.runtime = Runtime::kOpenMp;
  return c;
}

CommConfig CommConfig::utofu_3stage() {
  CommConfig c;
  c.pattern = PatternKind::kThreeStage;
  c.api = Api::kUtofu;
  c.ntnis = 1;
  c.comm_threads = 1;
  c.runtime = Runtime::kOpenMp;
  c.direct_write = false;
  return c;
}

CommConfig CommConfig::p2p_4tni() {
  CommConfig c;
  c.pattern = PatternKind::kP2p;
  c.api = Api::kUtofu;
  c.ntnis = 1;  // one exclusive TNI per rank; node uses 4 (Sec. 3.2)
  c.comm_threads = 1;
  c.runtime = Runtime::kOpenMp;
  c.direct_write = true;
  return c;
}

CommConfig CommConfig::p2p_6tni() {
  CommConfig c;
  c.pattern = PatternKind::kP2p;
  c.api = Api::kUtofu;
  c.ntnis = 6;  // all six TNIs, still a single thread
  c.comm_threads = 1;
  c.runtime = Runtime::kOpenMp;
  c.direct_write = true;
  return c;
}

CommConfig CommConfig::p2p_parallel() {
  CommConfig c;
  c.pattern = PatternKind::kP2p;
  c.api = Api::kUtofu;
  c.ntnis = 6;
  c.comm_threads = 6;  // one pool thread per TNI (Sec. 3.3)
  c.runtime = Runtime::kPool;
  c.direct_write = true;
  return c;
}

double NetModel::t_inj(Api api) const {
  return api == Api::kMpi ? cal_.t_inj_mpi : cal_.t_inj_utofu;
}

double NetModel::t_recv(Api api) const {
  return api == Api::kMpi ? cal_.t_recv_mpi : cal_.t_recv_utofu;
}

double NetModel::transit(double bytes, int hops) const {
  return cal_.t_base_latency + (hops > 1 ? (hops - 1) * cal_.t_hop : 0.0) +
         bytes / cal_.link_bw;
}

double NetModel::message_time(Api api, double bytes, int hops) const {
  return t_inj(api) + transit(bytes, hops) + t_recv(api);
}

double NetModel::exchange_time(const CommConfig& cfg,
                               std::span<const MsgSpec> msgs,
                               double extra_recv_bytes_factor) const {
  // How many ranks share each physical TNI. 4 ranks each binding one
  // private TNI: no sharing. 4 ranks each spreading over all 6: 4-way.
  const double share =
      std::max(1.0, static_cast<double>(cfg.ranks_per_node) * cfg.ntnis / 6.0);
  const int nth = cfg.comm_threads;
  const int ntni = std::max(1, cfg.ntnis);
  const bool multiplexed = cfg.comm_threads == 1 && ntni > 1;

  // Expand classes into individual messages.
  struct Msg {
    double bytes;
    int hops;
    int group;  ///< 3-stage sub-stage (barrier between groups) or 0
  };
  std::vector<Msg> all;
  int group = 0;
  for (const MsgSpec& spec : msgs) {
    for (int k = 0; k < spec.count; ++k) all.push_back({spec.bytes, spec.hops, group});
    if (cfg.pattern == PatternKind::kThreeStage) ++group;
  }
  const int ngroups = cfg.pattern == PatternKind::kThreeStage
                          ? group
                          : 1;

  std::vector<double> thr(static_cast<std::size_t>(nth), 0.0);
  std::vector<double> tni(static_cast<std::size_t>(ntni), 0.0);
  double clock = 0.0;

  for (int g = 0; g < ngroups; ++g) {
    for (auto& t : thr) t = std::max(t, clock);

    // Larger messages first on the least-loaded thread (the Fig. 10
    // balancer); hops add a latency-oriented tiebreak.
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].group == g || ngroups == 1) idx.push_back(i);
    }
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return all[a].bytes + 256.0 * all[a].hops >
             all[b].bytes + 256.0 * all[b].hops;
    });

    std::vector<double> arrival;
    std::vector<std::size_t> marr;
    int rr_tni = 0;
    for (const std::size_t i : idx) {
      const Msg& m = all[i];
      // Thread choice: least available time (work-conserving pool).
      const auto th = static_cast<std::size_t>(
          std::min_element(thr.begin(), thr.end()) - thr.begin());
      double cpu = t_inj(cfg.api) + m.bytes * cal_.t_pack_per_byte;
      if (multiplexed) cpu += cal_.t_vcq_switch;
      const double start = thr[th];
      thr[th] = start + cpu;

      const auto k = static_cast<std::size_t>(nth > 1 ? th % ntni : rr_tni++ % ntni);
      const double occupancy =
          std::max(cal_.t_tni_occupancy, m.bytes / cal_.link_bw) * share;
      const double entry = std::max(thr[th], tni[k]);
      tni[k] = entry + occupancy;

      double arr = tni[k] + cal_.t_base_latency +
                   (m.hops > 1 ? (m.hops - 1) * cal_.t_hop : 0.0);
      if (cfg.api == Api::kMpi && m.bytes > cal_.mpi_eager_bytes) {
        // Rendezvous handshake: one extra round trip before the payload.
        arr += 2.0 * (cal_.t_base_latency + (m.hops - 1) * cal_.t_hop);
      }
      arrival.push_back(arr);
      marr.push_back(i);
    }

    // Receive side (symmetric mirror): the same threads drain the same
    // message set arriving on the same schedule.
    double end = clock;
    for (std::size_t j = 0; j < arrival.size(); ++j) {
      const Msg& m = all[marr[j]];
      const auto th = static_cast<std::size_t>(
          std::min_element(thr.begin(), thr.end()) - thr.begin());
      double cpu = t_recv(cfg.api);
      if (!cfg.direct_write) {
        cpu += m.bytes * extra_recv_bytes_factor * cal_.t_pack_per_byte;
      }
      const double done = std::max(arrival[j], thr[th]) + cpu;
      thr[th] = done;
      end = std::max(end, done);
    }
    for (const double t : thr) end = std::max(end, t);
    clock = end;
  }

  if (cfg.pattern == PatternKind::kThreeStage && ngroups > 1) {
    clock += cal_.t_stage_barrier * (ngroups - 1);
  }
  if (cfg.pattern == PatternKind::kP2p) {
    const double count = static_cast<double>(all.size());
    clock += cal_.t_p2p_poll_quad * count * count;
  }
  // Parallel-region launch cost for multi-threaded communication.
  if (cfg.comm_threads > 1) {
    clock += cfg.runtime == Runtime::kPool ? cal_.pool_region_overhead
                                           : cal_.omp_region_overhead;
  }
  return clock;
}

double NetModel::message_rate(Api api, double bytes, int threads, int ntnis,
                              int ranks_per_node) const {
  if (threads < 1 || ntnis < 1) throw std::invalid_argument("bad rate config");
  const int node_threads = threads * ranks_per_node;
  // 4 ranks * (>=6 TNIs each) oversubscribes the 6 physical TNIs; 4
  // ranks * 1 private TNI uses 4 of them.
  const int node_tnis = std::min(6, ntnis * ranks_per_node);
  const bool multiplexed = threads < ntnis;

  double cpu = t_inj(api) + bytes * cal_.t_pack_per_byte;
  if (multiplexed) cpu += cal_.t_vcq_switch;

  const double cpu_rate = node_threads / cpu;
  const double tni_rate =
      node_tnis / std::max(cal_.t_tni_occupancy, bytes / cal_.link_bw);
  return std::min(cpu_rate, tni_rate);
}

double NetModel::allreduce_time(long ranks) const {
  if (ranks <= 1) return 0.0;
  const double levels = std::ceil(std::log2(static_cast<double>(ranks)));
  return cal_.t_allreduce_per_level * levels;
}

}  // namespace lmp::perf
