#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/tracer.h"
#include "tofu/network.h"

namespace lmp::tofu {
namespace {

TEST(Network, RegisterAndResolve) {
  Network net(2);
  std::vector<std::byte> buf(64);
  const Stadd s = net.reg_mem(0, buf.data(), buf.size());
  EXPECT_EQ(net.resolve(0, s, 0, 64), buf.data());
  EXPECT_EQ(net.resolve(0, s, 16, 8), buf.data() + 16);
  EXPECT_EQ(net.stats().registrations.load(), 1u);
}

TEST(Network, ResolveBoundsChecked) {
  Network net(1);
  std::vector<std::byte> buf(32);
  const Stadd s = net.reg_mem(0, buf.data(), buf.size());
  EXPECT_THROW(net.resolve(0, s, 16, 17), std::out_of_range);
  EXPECT_THROW(net.resolve(0, s + 1, 0, 1), std::invalid_argument);
}

TEST(Network, DeregisterInvalidates) {
  Network net(1);
  std::vector<std::byte> buf(32);
  const Stadd s = net.reg_mem(0, buf.data(), buf.size());
  net.dereg_mem(0, s);
  EXPECT_THROW(net.resolve(0, s, 0, 1), std::invalid_argument);
  EXPECT_THROW(net.dereg_mem(0, s), std::invalid_argument);
}

TEST(Network, CqExclusivity) {
  Network net(2);
  net.create_vcq(0, 0, 0);
  // Same (proc, tni, cq) is taken; other procs/tnis/cqs are free.
  EXPECT_THROW(net.create_vcq(0, 0, 0), std::invalid_argument);
  EXPECT_NO_THROW(net.create_vcq(0, 0, 1));
  EXPECT_NO_THROW(net.create_vcq(0, 1, 0));
  EXPECT_NO_THROW(net.create_vcq(1, 0, 0));
}

TEST(Network, FreeVcqReleasesCq) {
  Network net(1);
  const VcqId v = net.create_vcq(0, 2, 3);
  net.free_vcq(v);
  EXPECT_NO_THROW(net.create_vcq(0, 2, 3));
}

TEST(Network, VcqShapeValidation) {
  Network net(1, 6, 9);
  EXPECT_THROW(net.create_vcq(0, 6, 0), std::out_of_range);
  EXPECT_THROW(net.create_vcq(0, 0, 9), std::out_of_range);
  EXPECT_THROW(net.create_vcq(1, 0, 0), std::out_of_range);
}

TEST(Network, PutMovesBytesAndPostsCompletions) {
  Network net(2);
  std::vector<double> src{1.5, 2.5, 3.5};
  std::vector<double> dst(3, 0.0);
  const Stadd ss = net.reg_mem(0, src.data(), src.size() * 8);
  const Stadd ds = net.reg_mem(1, dst.data(), dst.size() * 8);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);

  net.put(v0, v1, ss, 0, ds, 0, 24, /*edata=*/0xBEEF);

  EXPECT_EQ(dst, src);
  const auto tcq = net.poll_tcq(v0);
  ASSERT_TRUE(tcq.has_value());
  EXPECT_EQ(tcq->edata, 0xBEEFu);
  const auto mrq = net.poll_mrq(v1);
  ASSERT_TRUE(mrq.has_value());
  EXPECT_EQ(mrq->edata, 0xBEEFu);
  EXPECT_EQ(mrq->length, 24u);
  EXPECT_EQ(mrq->src_proc, 0);
  EXPECT_FALSE(net.poll_mrq(v1).has_value());
}

TEST(Network, PutWithOffsets) {
  Network net(2);
  std::vector<double> src{7.0, 8.0};
  std::vector<double> dst(4, 0.0);
  const Stadd ss = net.reg_mem(0, src.data(), 16);
  const Stadd ds = net.reg_mem(1, dst.data(), 32);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);
  net.put(v0, v1, ss, 8, ds, 16, 8);
  EXPECT_DOUBLE_EQ(dst[2], 8.0);
  EXPECT_DOUBLE_EQ(dst[0], 0.0);
}

TEST(Network, PutBeyondRegionThrows) {
  Network net(2);
  std::vector<std::byte> a(16), b(16);
  const Stadd sa = net.reg_mem(0, a.data(), 16);
  const Stadd sb = net.reg_mem(1, b.data(), 16);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);
  EXPECT_THROW(net.put(v0, v1, sa, 8, sb, 0, 16), std::out_of_range);
}

TEST(Network, PiggybackDeliversEdataOnly) {
  Network net(2);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);
  net.put_piggyback(v0, v1, 42);
  const auto mrq = net.poll_mrq(v1);
  ASSERT_TRUE(mrq.has_value());
  EXPECT_EQ(mrq->edata, 42u);
  EXPECT_EQ(mrq->length, 0u);
}

TEST(Network, SelfPut) {
  Network net(1);
  std::vector<double> src{1.0};
  std::vector<double> dst{0.0};
  const Stadd ss = net.reg_mem(0, src.data(), 8);
  const Stadd ds = net.reg_mem(0, dst.data(), 8);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(0, 1, 0);
  net.put(v0, v1, ss, 0, ds, 0, 8);
  EXPECT_DOUBLE_EQ(dst[0], 1.0);
  EXPECT_TRUE(net.poll_mrq(v1).has_value());
}

TEST(Network, StatsCountPutsAndBytes) {
  Network net(2);
  std::vector<std::byte> a(128), b(128);
  const Stadd sa = net.reg_mem(0, a.data(), 128);
  const Stadd sb = net.reg_mem(1, b.data(), 128);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);
  net.put(v0, v1, sa, 0, sb, 0, 100);
  net.put(v0, v1, sa, 0, sb, 0, 28);
  EXPECT_EQ(net.stats().puts.load(), 2u);
  EXPECT_EQ(net.stats().bytes_put.load(), 128u);
}

TEST(Network, ConcurrentPutsAreOrderedPerVcq) {
  Network net(2);
  constexpr int kMsgs = 200;
  std::vector<double> src(1, 0.0), dst(1, 0.0);
  const Stadd ss = net.reg_mem(0, src.data(), 8);
  const Stadd ds = net.reg_mem(1, dst.data(), 8);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);

  std::thread sender([&] {
    for (int i = 0; i < kMsgs; ++i) {
      net.put(v0, v1, ss, 0, ds, 0, 8, static_cast<std::uint64_t>(i));
    }
  });
  // Receiver drains concurrently and must see edatas in order.
  for (int i = 0; i < kMsgs; ++i) {
    const MrqEntry e = net.wait_mrq(v1);
    EXPECT_EQ(e.edata, static_cast<std::uint64_t>(i));
  }
  sender.join();
}

TEST(Network, AllToAllPutPollStressKeepsPerSenderFifo) {
  // Four procs each drive one VCQ: every proc puts to every other proc
  // while polling its own MRQ, so each MRQ has three concurrent senders.
  // Per-sender order and exact counts must survive the contention.
  constexpr int kProcs = 4;
  constexpr int kMsgs = 2000;
  Network net(kProcs);
  std::vector<std::vector<double>> bufs(kProcs, std::vector<double>(kProcs, 0.0));
  std::vector<Stadd> stadds;
  std::vector<VcqId> vcqs;
  for (int p = 0; p < kProcs; ++p) {
    const auto pz = static_cast<std::size_t>(p);
    stadds.push_back(net.reg_mem(p, bufs[pz].data(), kProcs * sizeof(double)));
    vcqs.push_back(net.create_vcq(p, 0, 0));
  }

  std::vector<std::vector<int>> received(kProcs, std::vector<int>(kProcs, 0));
  std::vector<int> order_errors(kProcs, 0);
  std::vector<std::thread> ranks;
  for (int p = 0; p < kProcs; ++p) {
    ranks.emplace_back([&, p] {
      const auto pz = static_cast<std::size_t>(p);
      const auto drain = [&] {
        while (const auto e = net.poll_mrq(vcqs[pz])) {
          const auto from = static_cast<std::size_t>(e->edata >> 32);
          const auto seq = static_cast<int>(e->edata & 0xFFFFFFFFu);
          if (from >= kProcs) {
            ++order_errors[pz];
            continue;
          }
          if (e->src_proc != static_cast<int>(from) ||
              seq != received[pz][from]) {
            ++order_errors[pz];
          }
          ++received[pz][from];
        }
      };
      for (int i = 0; i < kMsgs; ++i) {
        for (int q = 0; q < kProcs; ++q) {
          if (q == p) continue;
          const auto qz = static_cast<std::size_t>(q);
          // Each sender copies its own 8-byte column, which no peer
          // writes, into the same column of the receiver.
          net.put(vcqs[pz], vcqs[qz], stadds[pz], pz * sizeof(double),
                  stadds[qz], pz * sizeof(double), sizeof(double),
                  static_cast<std::uint64_t>(p) << 32 |
                      static_cast<std::uint64_t>(i));
          net.wait_tcq(vcqs[pz]);
        }
        drain();
      }
      int total = 0;
      while (total < (kProcs - 1) * kMsgs) {
        drain();
        total = 0;
        for (const int n : received[pz]) total += n;
      }
    });
  }
  for (auto& t : ranks) t.join();

  for (int p = 0; p < kProcs; ++p) {
    const auto pz = static_cast<std::size_t>(p);
    EXPECT_EQ(order_errors[pz], 0) << "proc " << p;
    for (int q = 0; q < kProcs; ++q) {
      EXPECT_EQ(received[pz][static_cast<std::size_t>(q)], q == p ? 0 : kMsgs)
          << "proc " << p << " from " << q;
    }
    EXPECT_FALSE(net.poll_mrq(vcqs[pz]).has_value());
    EXPECT_FALSE(net.poll_tcq(vcqs[pz]).has_value());
  }
  EXPECT_EQ(net.stats().puts.load(),
            static_cast<std::uint64_t>(kProcs * (kProcs - 1) * kMsgs));
}

TEST(Network, VcqIdsAreDeterministicAndStaleIdsRejected) {
  Network net(3, 6, 9);
  // The id is a function of (proc, tni, cq), not of creation order.
  const VcqId late = net.create_vcq(2, 4, 7);
  EXPECT_EQ(late, (2 * 6 + 4) * 9 + 7);
  EXPECT_EQ(net.create_vcq(0, 0, 0), 0);
  EXPECT_EQ(net.proc_of(late), 2);
  EXPECT_EQ(net.tni_of(late), 4);

  // A notice left on a freed VCQ must not reach the CQ's next owner.
  net.put_piggyback(0, late, 11);
  net.free_vcq(late);
  EXPECT_THROW(net.poll_mrq(late), std::invalid_argument);
  EXPECT_THROW(net.poll_control(late), std::invalid_argument);
  EXPECT_THROW(net.put_piggyback(0, late, 12), std::invalid_argument);
  EXPECT_THROW(net.proc_of(late), std::invalid_argument);
  EXPECT_THROW(net.free_vcq(late), std::invalid_argument);

  EXPECT_EQ(net.create_vcq(2, 4, 7), late);
  EXPECT_FALSE(net.poll_mrq(late).has_value());
  EXPECT_FALSE(net.poll_tcq(late).has_value());
  net.put_piggyback(0, late, 13);
  const auto e = net.poll_mrq(late);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->edata, 13u);

  // Ids outside the table are unknown, never aliased.
  EXPECT_THROW(net.poll_mrq(3 * 6 * 9), std::invalid_argument);
  EXPECT_THROW(net.poll_mrq(kInvalidVcq), std::invalid_argument);
  EXPECT_THROW(net.free_vcq(3 * 6 * 9), std::invalid_argument);
}

TEST(Network, StaddsAreNeverReusedAcrossProcsOrReRegistrations) {
  Network net(2);
  std::vector<std::byte> a(64), b(64);
  const Stadd sa = net.reg_mem(0, a.data(), a.size());
  const Stadd sb = net.reg_mem(1, b.data(), b.size());
  EXPECT_NE(sa, sb);
  // One proc's STADD is unknown on the other.
  EXPECT_THROW(net.resolve(1, sa, 0, 1), std::invalid_argument);
  EXPECT_THROW(net.resolve(0, sb, 0, 1), std::invalid_argument);
  EXPECT_THROW(net.resolve(0, 0, 0, 1), std::invalid_argument);
  // Re-registering the same memory hands out a fresh STADD; the old one
  // stays dead.
  net.dereg_mem(0, sa);
  const Stadd again = net.reg_mem(0, a.data(), a.size());
  EXPECT_NE(again, sa);
  EXPECT_THROW(net.resolve(0, sa, 0, 1), std::invalid_argument);
  EXPECT_EQ(net.resolve(0, again, 0, 64), a.data());
}

/// The text of the exception `fn` throws as E ("" when it throws none).
template <class E, class Fn>
std::string thrown_text(Fn&& fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

TEST(Network, RegistrationChurnNeverDisturbsConcurrentPuts) {
  // One thread keeps registering and deregistering regions of proc 1
  // while another puts into a different, stable region of proc 1. The
  // shared-locked lookup must never report the stable region unknown.
  Network net(2);
  std::vector<double> src(8, 2.5), dst(8, 0.0);
  const Stadd ss = net.reg_mem(0, src.data(), 64);
  const Stadd ds = net.reg_mem(1, dst.data(), 64);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> churn_errors{0};
  std::atomic<int> churn_rounds{0};
  std::thread churn([&] {
    std::vector<std::byte> scratch(4096);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Stadd> live;
      for (int i = 0; i < 40; ++i) {
        live.push_back(net.reg_mem(1, scratch.data() + 64 * i, 64));
      }
      for (const Stadd s : live) {
        if (net.resolve(1, s, 0, 64) == nullptr) churn_errors.fetch_add(1);
        net.dereg_mem(1, s);
      }
      // A deregistered STADD reads as unknown, never as another window.
      for (const Stadd s : live) {
        if (thrown_text<std::invalid_argument>([&] {
              net.resolve(1, s, 0, 1);
            }).empty()) {
          churn_errors.fetch_add(1);
        }
      }
      churn_rounds.fetch_add(1);
    }
  });
  // Keep putting until the churn has cycled every slot many times over.
  int put_errors = 0;
  for (int i = 0; i < 20000 || churn_rounds.load() < 200; ++i) {
    try {
      net.put(v0, v1, ss, 0, ds, 0, 64, static_cast<std::uint64_t>(i));
    } catch (const std::exception&) {
      ++put_errors;
    }
    net.poll_tcq(v0);
    net.poll_mrq(v1);
  }
  stop.store(true);
  churn.join();
  EXPECT_EQ(put_errors, 0);
  EXPECT_EQ(churn_errors.load(), 0);
  EXPECT_EQ(dst[7], 2.5);

  // Error texts are part of the interface: pinned to the byte.
  EXPECT_EQ(thrown_text<std::out_of_range>(
                [&] { net.put(v0, v1, ss, 0, ds, 8, 64); }),
            "put destination: window [8, +64) leaves registered region of "
            "64 bytes (stadd " + std::to_string(ds) + ", proc 1)");
  EXPECT_EQ(thrown_text<std::out_of_range>(
                [&] { net.put(v0, v1, ss, 65, ds, 0, 0); }),
            "put source: window [65, +0) leaves registered region of 64 "
            "bytes (stadd " + std::to_string(ss) + ", proc 0)");
  EXPECT_EQ(thrown_text<std::invalid_argument>(
                [&] { net.put(v0, v1, ss, 0, ds + 1, 0, 8); }),
            "put destination: unknown stadd " + std::to_string(ds + 1) +
                " on proc 1");
  EXPECT_EQ(thrown_text<std::invalid_argument>(
                [&] { net.resolve(0, ds, 0, 8); }),
            "RDMA access: unknown stadd " + std::to_string(ds) + " on proc 0");
}

/// Restore the global metrics gate no matter how a test exits.
class MetricsGuard {
 public:
  MetricsGuard() { obs::set_metrics_enabled(true); }
  ~MetricsGuard() { obs::set_metrics_enabled(false); }
};

TEST(LinkTelemetry, DimensionOrderRouteMatchesTopologyHops) {
  // 24 procs -> two 2x3x2 cells; the B axis is always a 3-torus, A and C
  // are 2-meshes, so specific wraparound behavior is pinned down.
  LinkTelemetry lt(24, 6);
  const Topology& topo = lt.topology();
  ASSERT_EQ(topo.nnodes(), 24);

  // Node ids order c fastest, then b, a, x, y, z: node 4 differs from
  // node 0 only in b (0 -> 2). On the 3-torus going backward (b 0 -> 2
  // via the wrap) is 1 hop; dimension-order routing must take it instead
  // of two forward hops.
  const TofuCoord c4 = topo.coord_of(4);
  EXPECT_EQ(c4[Axis::kB], 2);
  const auto wrap = lt.route(0, 4);
  ASSERT_EQ(wrap.size(), 1u);
  EXPECT_EQ(wrap[0].from_node, 0);
  EXPECT_EQ(wrap[0].to_node, 4);
  EXPECT_EQ(wrap[0].axis, Axis::kB);
  EXPECT_TRUE(wrap[0].negative);
  EXPECT_EQ(topo.hops(0, 4), 1);

  // Corner-to-corner route: every step moves one axis, steps chain, axes
  // appear in dimension order, and the length equals the topology's
  // dimension-order hop count.
  const auto steps = lt.route(0, 23);
  ASSERT_EQ(static_cast<int>(steps.size()), topo.hops(0, 23));
  EXPECT_EQ(steps.front().from_node, 0);
  EXPECT_EQ(steps.back().to_node, 23);
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].from_node, steps[i - 1].to_node);
    EXPECT_GE(steps[i].axis, steps[i - 1].axis);
  }
}

TEST(LinkTelemetry, NetworkChargesExactlyTheRoutedLinks) {
  const MetricsGuard guard;
  Network net(24);
  std::vector<double> src{1.0, 2.0, 3.0};
  std::vector<double> dst(3, 0.0);
  const Stadd ss = net.reg_mem(0, src.data(), 24);
  const Stadd ds = net.reg_mem(4, dst.data(), 24);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v4 = net.create_vcq(4, 0, 0);
  net.put(v0, v4, ss, 0, ds, 0, 24);

  FabricSnapshot s = net.link_telemetry().snapshot();
  EXPECT_EQ(s.puts_charged, 1u);
  EXPECT_EQ(s.total_packets, 1u);   // 1 packet x 1 hop
  EXPECT_EQ(s.total_bytes, 24u);    // 24 bytes x 1 hop
  ASSERT_EQ(s.links.size(), 1u);    // exactly the one B-wrap link
  EXPECT_EQ(s.links[0].from_node, 0);
  EXPECT_EQ(s.links[0].to_node, 4);
  EXPECT_EQ(s.links[0].axis, Axis::kB);
  EXPECT_TRUE(s.links[0].negative);
  ASSERT_EQ(s.hop_histogram.size(), 2u);
  EXPECT_EQ(s.hop_histogram[1], 1u);
  ASSERT_GE(s.tnis.size(), 1u);
  EXPECT_EQ(s.tnis[0].bytes, 24u);

  // A piggyback put crosses the wires too: packets charged, zero bytes.
  // Proc 23 sits at the far corner, so its hop count lands in the bucket
  // the Topology promises for that pair.
  const VcqId v23 = net.create_vcq(23, 0, 0);
  net.put_piggyback(v0, v23, 7);
  s = net.link_telemetry().snapshot();
  const int far = net.link_telemetry().topology().hops(0, 23);
  EXPECT_EQ(s.puts_charged, 2u);
  EXPECT_EQ(s.total_bytes, 24u);  // unchanged — piggyback carries 0 bytes
  ASSERT_GT(static_cast<int>(s.hop_histogram.size()), far);
  EXPECT_EQ(s.hop_histogram[static_cast<std::size_t>(far)], 1u);
}

TEST(LinkTelemetry, NoChargeWhenMetricsDisabled) {
  obs::set_metrics_enabled(false);
  Network net(2);
  const VcqId v0 = net.create_vcq(0, 0, 0);
  const VcqId v1 = net.create_vcq(1, 0, 0);
  net.put_piggyback(v0, v1, 1);
  EXPECT_EQ(net.link_telemetry().snapshot().puts_charged, 0u);
}

}  // namespace
}  // namespace lmp::tofu
