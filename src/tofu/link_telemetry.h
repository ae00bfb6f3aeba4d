#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tofu/topology.h"

namespace lmp::tofu {

/// Traffic carried by one directed 6D link, resolved to endpoint
/// coordinates for reporting ("hot link (0,0,0,0,1,0) -B-> (0,0,0,0,0,0)").
struct FabricLinkStat {
  long from_node = 0;
  long to_node = 0;
  Axis axis = Axis::kX;
  bool negative = false;  ///< the -1 (or wraparound) direction of the axis
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

/// Traffic injected per source TNI (which NIC the put left through).
struct FabricTniStat {
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

/// Immutable end-of-run picture of fabric traffic: per-link counters
/// (sorted hottest first), per-TNI injection counters, and the
/// hop-count histogram of every charged put.
struct FabricSnapshot {
  std::uint64_t total_bytes = 0;    ///< sum of bytes x hops over all puts
  std::uint64_t total_packets = 0;  ///< sum of packets x hops
  std::uint64_t puts_charged = 0;
  std::vector<FabricLinkStat> links;       ///< sorted by bytes desc
  std::vector<FabricTniStat> tnis;         ///< index = source TNI
  std::vector<std::uint64_t> hop_histogram;  ///< index = hop count

  std::uint64_t max_link_bytes() const;
  double mean_link_bytes() const;  ///< over links that carried traffic

  /// Merge another snapshot (failed failover attempts accumulate into
  /// the final report, like the health-counter carry).
  FabricSnapshot& operator+=(const FabricSnapshot& o);
};

/// Per-link transit accounting for the functional TofuD model.
///
/// Procs map linearly onto the nodes of `Topology::for_nodes(nprocs)` —
/// the same mapping `FaultInjector::map_procs` uses, so the fault model
/// and the telemetry agree on which wires a message crossed. Every
/// charged put walks the dimension-order route (axes in X,Y,Z,A,B,C
/// order, one hop at a time, taking the shorter way around torus axes)
/// and adds its bytes/packets to each directed link it traverses.
///
/// Thread-safe: `charge` takes an internal mutex — it is only called
/// when metrics collection is enabled, so the clean hot path never
/// contends here.
class LinkTelemetry {
 public:
  LinkTelemetry(long nprocs, int tnis);

  /// Charge one put of `bytes` payload from src_proc to dst_proc leaving
  /// through `src_tni`. `copies` > 1 accounts a fault-injected duplicate
  /// (two packets crossed every link). A self-put (src == dst node)
  /// traverses no links but still lands in the hop histogram at 0.
  void charge(int src_proc, int dst_proc, int src_tni, std::uint64_t bytes,
              int copies = 1);

  FabricSnapshot snapshot() const;

  const Topology& topology() const { return topo_; }

  /// The dimension-order route from u to v as directed (from, axis,
  /// negative) steps — exposed so tests can assert exactly which links a
  /// put is charged to.
  std::vector<FabricLinkStat> route(long u, long v) const;

 private:
  struct LinkCounters {
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
  };

  static std::uint64_t link_key(long from_node, Axis axis, bool negative) {
    return (static_cast<std::uint64_t>(from_node) * kAxisCount +
            static_cast<std::uint64_t>(axis)) *
               2 +
           (negative ? 1 : 0);
  }

  Topology topo_;
  int tnis_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, LinkCounters> links_;
  std::vector<LinkCounters> tni_;
  std::vector<std::uint64_t> hops_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t puts_charged_ = 0;
};

/// Process-wide roll-up of fabric traffic across fabric lifetimes.
///
/// Fabrics are per-attempt: each job (and each failover attempt within a
/// job) builds a fresh `Network`, so any single `LinkTelemetry` only
/// covers one attempt's traffic. The telemetry sampler instead needs one
/// *monotonic* per-TNI byte/packet total it can delta against. Networks
/// register their telemetry here on construction and detach on
/// destruction; detaching folds the final snapshot into the retired
/// totals, so `tni_totals()` (retired + currently-live sums) never goes
/// backwards as fabrics come and go.
///
/// Like the metrics registry this is a process singleton — acceptable
/// because the sampler's CounterDelta tolerates resets, and per-server
/// attribution happens at the job level, not the fabric level.
class LiveFabricRegistry {
 public:
  static LiveFabricRegistry& instance();

  void attach(const LinkTelemetry* t);
  /// Folds `t`'s final snapshot into the retired totals and forgets it.
  /// Safe to call with a pointer that was never attached (no-op).
  void detach(const LinkTelemetry* t);

  /// Monotonic per-TNI injection totals (index = TNI), sized to the
  /// widest fabric seen so far. Empty until any fabric carried traffic.
  std::vector<FabricTniStat> tni_totals() const;
  /// Fabrics currently alive (attached and not yet detached).
  std::size_t live_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<const LinkTelemetry*> live_;
  std::vector<FabricTniStat> retired_tnis_;
};

/// Render the link-utilization summary as the standard table layout:
/// totals, max/mean link load, and the top-k hottest links with their
/// 6D endpoint coordinates. Empty string when nothing was charged.
std::string format_fabric_table(const Topology& topo, const FabricSnapshot& s,
                                std::size_t top_k = 10);

const char* axis_name(Axis ax);

}  // namespace lmp::tofu
