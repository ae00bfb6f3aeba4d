#include "tofu/link_telemetry.h"

#include <algorithm>
#include <stdexcept>

#include "util/table_printer.h"

namespace lmp::tofu {

const char* axis_name(Axis ax) {
  switch (ax) {
    case Axis::kX:
      return "X";
    case Axis::kY:
      return "Y";
    case Axis::kZ:
      return "Z";
    case Axis::kA:
      return "A";
    case Axis::kB:
      return "B";
    case Axis::kC:
      return "C";
    default:
      return "?";
  }
}

std::uint64_t FabricSnapshot::max_link_bytes() const {
  std::uint64_t m = 0;
  for (const auto& l : links) m = std::max(m, l.bytes);
  return m;
}

double FabricSnapshot::mean_link_bytes() const {
  if (links.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& l : links) sum += static_cast<double>(l.bytes);
  return sum / static_cast<double>(links.size());
}

FabricSnapshot& FabricSnapshot::operator+=(const FabricSnapshot& o) {
  total_bytes += o.total_bytes;
  total_packets += o.total_packets;
  puts_charged += o.puts_charged;
  // Merge per-link stats on (from, axis, negative) identity.
  for (const auto& ol : o.links) {
    auto it = std::find_if(links.begin(), links.end(), [&](const FabricLinkStat& l) {
      return l.from_node == ol.from_node && l.axis == ol.axis &&
             l.negative == ol.negative;
    });
    if (it == links.end()) {
      links.push_back(ol);
    } else {
      it->bytes += ol.bytes;
      it->packets += ol.packets;
    }
  }
  std::stable_sort(links.begin(), links.end(),
                   [](const FabricLinkStat& a, const FabricLinkStat& b) {
                     return a.bytes > b.bytes;
                   });
  if (tnis.size() < o.tnis.size()) tnis.resize(o.tnis.size());
  for (std::size_t i = 0; i < o.tnis.size(); ++i) {
    tnis[i].bytes += o.tnis[i].bytes;
    tnis[i].packets += o.tnis[i].packets;
  }
  if (hop_histogram.size() < o.hop_histogram.size()) {
    hop_histogram.resize(o.hop_histogram.size());
  }
  for (std::size_t i = 0; i < o.hop_histogram.size(); ++i) {
    hop_histogram[i] += o.hop_histogram[i];
  }
  return *this;
}

LinkTelemetry::LinkTelemetry(long nprocs, int tnis)
    : topo_(Topology::for_nodes(nprocs)),
      tnis_(tnis),
      tni_(static_cast<std::size_t>(tnis > 0 ? tnis : 1)) {}

std::vector<FabricLinkStat> LinkTelemetry::route(long u, long v) const {
  std::vector<FabricLinkStat> steps;
  TofuCoord cur = topo_.coord_of(u);
  const TofuCoord dst = topo_.coord_of(v);
  const AxisShape& shape = topo_.shape();
  for (int ai = 0; ai < kAxisCount; ++ai) {
    const Axis ax = static_cast<Axis>(ai);
    const int n = shape.size_of(ax);
    while (cur[ax] != dst[ax]) {
      int step;
      if (shape.is_torus(ax)) {
        // Shorter way around; ties break toward the positive direction.
        const int fwd = ((dst[ax] - cur[ax]) % n + n) % n;
        const int bwd = n - fwd;
        step = fwd <= bwd ? 1 : -1;
      } else {
        step = dst[ax] > cur[ax] ? 1 : -1;
      }
      FabricLinkStat link;
      link.from_node = topo_.node_of(cur);
      link.axis = ax;
      link.negative = step < 0;
      cur[ax] = ((cur[ax] + step) % n + n) % n;
      link.to_node = topo_.node_of(cur);
      steps.push_back(link);
    }
  }
  return steps;
}

void LinkTelemetry::charge(int src_proc, int dst_proc, int src_tni,
                           std::uint64_t bytes, int copies) {
  if (copies < 1) return;
  const long n = topo_.nnodes();
  const long u = static_cast<long>(src_proc) % n;
  const long v = static_cast<long>(dst_proc) % n;
  const auto steps = route(u, v);
  const std::uint64_t packets = static_cast<std::uint64_t>(copies);
  const std::uint64_t total = bytes * packets;

  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : steps) {
    LinkCounters& c = links_[link_key(s.from_node, s.axis, s.negative)];
    c.bytes += total;
    c.packets += packets;
    total_bytes_ += total;
    total_packets_ += packets;
  }
  if (src_tni >= 0 && static_cast<std::size_t>(src_tni) < tni_.size()) {
    tni_[static_cast<std::size_t>(src_tni)].bytes += total;
    tni_[static_cast<std::size_t>(src_tni)].packets += packets;
  }
  const std::size_t hops = steps.size();
  if (hops_.size() <= hops) hops_.resize(hops + 1);
  hops_[hops] += packets;
  puts_charged_ += packets;
}

FabricSnapshot LinkTelemetry::snapshot() const {
  FabricSnapshot s;
  std::lock_guard<std::mutex> lk(mu_);
  s.total_bytes = total_bytes_;
  s.total_packets = total_packets_;
  s.puts_charged = puts_charged_;
  s.links.reserve(links_.size());
  for (const auto& [key, c] : links_) {
    FabricLinkStat l;
    const bool negative = (key % 2) != 0;
    const std::uint64_t rest = key / 2;
    l.axis = static_cast<Axis>(rest % kAxisCount);
    l.from_node = static_cast<long>(rest / kAxisCount);
    l.negative = negative;
    // Re-walk one step to recover the destination node id.
    TofuCoord c6 = topo_.coord_of(l.from_node);
    const int n = topo_.shape().size_of(l.axis);
    const int step = negative ? -1 : 1;
    c6[l.axis] = ((c6[l.axis] + step) % n + n) % n;
    l.to_node = topo_.node_of(c6);
    l.bytes = c.bytes;
    l.packets = c.packets;
    s.links.push_back(l);
  }
  // Deterministic order: hottest first, then by (from, axis, dir) so
  // equal-load links don't reshuffle between runs.
  std::sort(s.links.begin(), s.links.end(),
            [](const FabricLinkStat& a, const FabricLinkStat& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              if (a.from_node != b.from_node) return a.from_node < b.from_node;
              if (a.axis != b.axis) return a.axis < b.axis;
              return a.negative < b.negative;
            });
  s.tnis.resize(tni_.size());
  for (std::size_t i = 0; i < tni_.size(); ++i) {
    s.tnis[i] = {tni_[i].bytes, tni_[i].packets};
  }
  s.hop_histogram = hops_;
  return s;
}

std::string format_fabric_table(const Topology& topo, const FabricSnapshot& s,
                                std::size_t top_k) {
  if (s.puts_charged == 0) return "";
  std::string out = "fabric link utilization\n";
  {
    util::TablePrinter t({"metric", "value"});
    t.add_row({"puts charged", std::to_string(s.puts_charged)});
    t.add_row({"link-bytes total", std::to_string(s.total_bytes)});
    t.add_row({"link-packets total", std::to_string(s.total_packets)});
    t.add_row({"links used", std::to_string(s.links.size())});
    t.add_row({"max link bytes", std::to_string(s.max_link_bytes())});
    t.add_row({"mean link bytes", util::TablePrinter::fmt(s.mean_link_bytes(), 1)});
    out += t.to_string();
  }
  {
    out += "hops:";
    for (std::size_t h = 0; h < s.hop_histogram.size(); ++h) {
      out += " ";
      out += std::to_string(h);
      out += "=";
      out += std::to_string(s.hop_histogram[h]);
    }
    out += "\n";
  }
  if (!s.links.empty()) {
    util::TablePrinter t({"link", "axis", "bytes", "packets"});
    const std::size_t k = std::min(top_k, s.links.size());
    for (std::size_t i = 0; i < k; ++i) {
      const auto& l = s.links[i];
      const std::string name = topo.coord_of(l.from_node).to_string() +
                               " -> " + topo.coord_of(l.to_node).to_string();
      t.add_row({name, std::string(axis_name(l.axis)) + (l.negative ? "-" : "+"),
                 std::to_string(l.bytes), std::to_string(l.packets)});
    }
    out += "top links (hottest first)\n";
    out += t.to_string();
  }
  bool any_tni = false;
  for (const auto& t : s.tnis) any_tni = any_tni || t.packets > 0;
  if (any_tni) {
    util::TablePrinter t({"tni", "bytes", "packets"});
    for (std::size_t i = 0; i < s.tnis.size(); ++i) {
      t.add_row({std::to_string(i), std::to_string(s.tnis[i].bytes),
                 std::to_string(s.tnis[i].packets)});
    }
    out += "per-TNI injection\n";
    out += t.to_string();
  }
  return out;
}

LiveFabricRegistry& LiveFabricRegistry::instance() {
  static LiveFabricRegistry r;
  return r;
}

void LiveFabricRegistry::attach(const LinkTelemetry* t) {
  std::lock_guard<std::mutex> lk(mu_);
  live_.push_back(t);
}

void LiveFabricRegistry::detach(const LinkTelemetry* t) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = std::find(live_.begin(), live_.end(), t);
  if (it == live_.end()) return;
  live_.erase(it);
  const FabricSnapshot s = t->snapshot();
  if (s.tnis.size() > retired_tnis_.size()) retired_tnis_.resize(s.tnis.size());
  for (std::size_t i = 0; i < s.tnis.size(); ++i) {
    retired_tnis_[i].bytes += s.tnis[i].bytes;
    retired_tnis_[i].packets += s.tnis[i].packets;
  }
}

std::vector<FabricTniStat> LiveFabricRegistry::tni_totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<FabricTniStat> out = retired_tnis_;
  for (const LinkTelemetry* t : live_) {
    const FabricSnapshot s = t->snapshot();
    if (s.tnis.size() > out.size()) out.resize(s.tnis.size());
    for (std::size_t i = 0; i < s.tnis.size(); ++i) {
      out[i].bytes += s.tnis[i].bytes;
      out[i].packets += s.tnis[i].packets;
    }
  }
  return out;
}

std::size_t LiveFabricRegistry::live_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_.size();
}

}  // namespace lmp::tofu
