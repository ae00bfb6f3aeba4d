#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "comm/dispatcher.h"

namespace lmp::comm {
namespace {

struct Fixture {
  tofu::Network net{2};
  tofu::VcqId sender;
  tofu::VcqId receiver;
  NoticeDispatcher dispatch;

  Fixture() {
    sender = net.create_vcq(0, 0, 0);
    receiver = net.create_vcq(1, 0, 0);
    dispatch = NoticeDispatcher(&net, receiver);
  }

  void post(MsgKind kind, int dir, std::uint32_t value) {
    net.put_piggyback(sender, receiver,
                      Edata{kind, dir, 0, value}.encode());
  }
};

TEST(NoticeDispatcher, DeliversMatchingNotice) {
  Fixture f;
  f.post(MsgKind::kForward, 3, 42);
  const Edata e = f.dispatch.wait(MsgKind::kForward, 3);
  EXPECT_EQ(e.value, 42u);
  EXPECT_EQ(e.dir, 3);
}

TEST(NoticeDispatcher, ReordersInterleavedKinds) {
  // A forward for step n+1 lands before the reverse for step n — the
  // exact interleaving the stage ordering allows.
  Fixture f;
  f.post(MsgKind::kForward, 1, 100);
  f.post(MsgKind::kReverse, 1, 200);
  const Edata rev = f.dispatch.wait(MsgKind::kReverse, 1);
  EXPECT_EQ(rev.value, 200u);
  const Edata fwd = f.dispatch.wait(MsgKind::kForward, 1);
  EXPECT_EQ(fwd.value, 100u);
}

TEST(NoticeDispatcher, ReordersAcrossDirections) {
  Fixture f;
  for (int d = 0; d < 5; ++d) {
    f.post(MsgKind::kBorder, d, static_cast<std::uint32_t>(d * 10));
  }
  // Consume in reverse direction order.
  for (int d = 4; d >= 0; --d) {
    EXPECT_EQ(f.dispatch.wait(MsgKind::kBorder, d).value,
              static_cast<std::uint32_t>(d * 10));
  }
}

TEST(NoticeDispatcher, ShuffledPerDirectionWaitsAllComplete) {
  // Async-executor regression: the step DAG completes forward waits in
  // whatever order workers claim them, not in channel order, and the
  // notices themselves can land late relative to the first wait. The
  // dispatcher must route every (kind, dir) to its waiter regardless of
  // either ordering. Seeded shuffles keep failures reproducible.
  std::mt19937 rng(1234u);
  for (int round = 0; round < 10; ++round) {
    Fixture f;
    std::vector<int> dirs(13);
    std::iota(dirs.begin(), dirs.end(), 0);

    // Half the notices are posted up front, the other half trickle in
    // from a "peer" thread while the waits are already in progress.
    std::vector<int> early(dirs.begin(), dirs.begin() + 6);
    std::vector<int> late(dirs.begin() + 6, dirs.end());
    std::shuffle(early.begin(), early.end(), rng);
    std::shuffle(late.begin(), late.end(), rng);
    for (const int d : early) {
      f.post(MsgKind::kForward, d, static_cast<std::uint32_t>(1000 + d));
    }
    std::thread peer([&] {
      for (const int d : late) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        f.post(MsgKind::kForward, d, static_cast<std::uint32_t>(1000 + d));
      }
    });

    // Consume in a shuffled order unrelated to the post order.
    std::vector<int> wait_order = dirs;
    std::shuffle(wait_order.begin(), wait_order.end(), rng);
    for (const int d : wait_order) {
      EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, d).value,
                static_cast<std::uint32_t>(1000 + d));
    }
    peer.join();
  }
}

TEST(NoticeDispatcher, TwoOutstandingForwardsDrainOldestFirst) {
  // A Newton-off neighbor may run one forward ahead: its step-(n+1)
  // forward on dir 3 lands while we still wait for step n's on dir 5.
  // Both stay parked, and later waits consume them in arrival order.
  Fixture f;
  f.post(MsgKind::kForward, 3, 1);
  f.post(MsgKind::kForward, 3, 2);
  f.post(MsgKind::kForward, 5, 9);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 5).value, 9u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 3).value, 1u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 3).value, 2u);
}

TEST(NoticeDispatcher, DoubleOutstandingChannelIsAProtocolError) {
  // A third unconsumed message on one (kind, dir) channel violates the
  // at-most-two-in-flight bound the engine relies on.
  // The error names where it happened: proc, VCQ, channel, and the
  // sequence numbers of the newest stashed and the incoming message.
  Fixture f;
  f.net.put_piggyback(f.sender, f.receiver,
                      Edata{MsgKind::kExchange, 7, 0, 1, /*seq=*/2}.encode());
  f.net.put_piggyback(f.sender, f.receiver,
                      Edata{MsgKind::kExchange, 7, 0, 2, /*seq=*/3}.encode());
  f.net.put_piggyback(f.sender, f.receiver,
                      Edata{MsgKind::kExchange, 7, 0, 3, /*seq=*/4}.encode());
  try {
    f.dispatch.wait(MsgKind::kBorder, 0);
    FAIL() << "expected a stage-ordering logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "more than two outstanding messages on one (kind, dir) "
              "channel — stage ordering violated: proc 1, VCQ " +
                  std::to_string(f.receiver) +
                  ", kind exchange, dir 7, stashed seq 3, incoming seq 4");
  }
}

TEST(NoticeDispatcher, CrcRejectOfParkedForwardReplaysItBeforeTheNext) {
  // Reliable Newton-off: forwards seq 1 and 2 on dir 3 are both parked
  // while we wait on dir 5, then seq 1's payload fails its CRC. The retry
  // must deliver the replay of seq 1, not the parked seq 2, and seq 2
  // must follow — each asked for by NACK, in sequence order.
  Fixture f;
  const auto put = [&](int dir, std::uint8_t seq, std::uint32_t value) {
    f.net.put_piggyback(f.sender, f.receiver,
                        Edata{MsgKind::kForward, dir, 0, value, seq}.encode());
  };
  std::vector<int> nacked;
  f.dispatch.enable_reliability([&](MsgKind kind, int dir) {
    // The sender's progress engine: replay exactly the seq asked for.
    const std::uint8_t want = f.dispatch.expected_seq(kind, dir);
    nacked.push_back(want);
    put(dir, want, 100U + want);
  });
  put(3, 1, 1);
  put(3, 2, 2);
  put(5, 1, 9);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 5).value, 9u);
  const Edata rejected = f.dispatch.wait(MsgKind::kForward, 3);
  EXPECT_EQ(rejected.value, 1u);
  f.dispatch.accept_retransmit(MsgKind::kForward, 3, rejected.seq);
  EXPECT_EQ(f.dispatch.expected_seq(MsgKind::kForward, 3), 1);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 3).value, 101u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 3).value, 102u);
  EXPECT_EQ(nacked, (std::vector<int>{1, 2}));
}

TEST(NoticeDispatcher, ReliableChannelAcceptsOnlyInSequenceOrder) {
  // A lost or delayed seq 1 lets seq 2 arrive first. It must not stand
  // in for seq 1: it is dropped, and the stalled wait NACKs for seq 1.
  Fixture f;
  const auto put = [&](std::uint8_t seq) {
    f.net.put_piggyback(f.sender, f.receiver,
                        Edata{MsgKind::kForward, 4, 0, seq, seq}.encode());
  };
  std::vector<int> nacked;
  f.dispatch.enable_reliability([&](MsgKind kind, int dir) {
    const std::uint8_t want = f.dispatch.expected_seq(kind, dir);
    nacked.push_back(want);
    put(want);
  });
  put(2);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 4).seq, 1);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 4).seq, 2);
  EXPECT_EQ(nacked, (std::vector<int>{1, 2}));
  EXPECT_EQ(f.dispatch.counters().duplicates_dropped.load(), 1u);
}

TEST(NoticeDispatcher, TeardownWithInFlightNackBackoff) {
  // Failover regression: a dispatcher stuck in a reliable wait (NACKs
  // firing, long deadline) must unblock via the fabric abort, and its
  // counters must still be safely snapshot-able from another thread
  // while the waiter is live — the relaxed-copy semantics of
  // DispatcherCounters.
  using namespace std::chrono_literals;
  Fixture f;
  std::atomic<int> nacks{0};
  ReliabilityParams params;
  params.nack_after = 1ms;
  params.nack_max = 2ms;
  params.wait_deadline = 10000ms;  // far longer than the test may take
  f.dispatch.enable_reliability([&](MsgKind, int) { nacks.fetch_add(1); },
                                params);

  std::thread waiter([&] {
    EXPECT_THROW(f.dispatch.wait(MsgKind::kForward, 0),
                 tofu::JobAbortedError);
  });
  // Let the backoff machinery engage before pulling the plug.
  while (nacks.load() < 3) std::this_thread::yield();
  const DispatcherCounters snapshot = f.dispatch.counters();  // concurrent copy
  EXPECT_EQ(snapshot.duplicates_dropped.load(), 0u);
  f.net.abort_fabric("teardown test");
  const auto t0 = std::chrono::steady_clock::now();
  waiter.join();
  // Prompt unblock: the 10 s deadline was never waited out.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  EXPECT_GE(nacks.load(), 3);
}

TEST(NoticeDispatcher, RetransmitKeepsOneFlowAcrossSegments) {
  // Satellite guarantee of the causal tracing: a CRC-rejected message
  // and its NACKed replay must read as ONE flow in the trace — the
  // original put emits "s", the retransmit "t", and every delivery "f"
  // on the same id — not as two unrelated flows.
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  obs::Tracer::instance().reset();
  obs::set_trace_categories(static_cast<std::uint32_t>(obs::TraceCat::kComm));
  struct CatsOff {
    ~CatsOff() {
      obs::set_trace_categories(0);
      obs::Tracer::instance().reset();
    }
  } guard;

  Fixture f;
  f.dispatch.enable_reliability([](MsgKind, int) {});
  const std::uint64_t flow = (1ull << 32) | 7;

  // Original data-mode put carries the flow id end to end.
  const Edata msg{MsgKind::kForward, 2, 1, 5, /*seq=*/1};
  f.net.put_piggyback(f.sender, f.receiver, msg.encode(),
                      tofu::PutMode::kData, flow);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 2).value, 5u);

  // Receiver-side CRC reject: re-admit the seq and have the sender
  // replay — the retransmit put travels under the SAME flow id.
  f.dispatch.accept_retransmit(MsgKind::kForward, 2, msg.seq);
  f.net.put_piggyback(f.sender, f.receiver, msg.encode(),
                      tofu::PutMode::kRetransmit, flow);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 2).value, 5u);

  int starts = 0;
  int steps = 0;
  int finishes = 0;
  for (const obs::CollectedEvent& e : obs::Tracer::instance().snapshot_events()) {
    if (e.event.kind == obs::TraceEvent::kFlowStart ||
        e.event.kind == obs::TraceEvent::kFlowStep ||
        e.event.kind == obs::TraceEvent::kFlowFinish) {
      EXPECT_EQ(static_cast<std::uint64_t>(e.event.value), flow);
      starts += e.event.kind == obs::TraceEvent::kFlowStart ? 1 : 0;
      steps += e.event.kind == obs::TraceEvent::kFlowStep ? 1 : 0;
      finishes += e.event.kind == obs::TraceEvent::kFlowFinish ? 1 : 0;
    }
  }
  EXPECT_EQ(starts, 1);    // exactly one flow began
  EXPECT_EQ(steps, 1);     // the retransmit is a segment, not a new flow
  EXPECT_EQ(finishes, 2);  // both deliveries closed onto the same flow
}

TEST(NoticeDispatcher, DrainTcqConsumesSenderCompletion) {
  Fixture f;
  NoticeDispatcher send_side(&f.net, f.sender);
  f.post(MsgKind::kBorderAck, 0, 9);
  send_side.drain_tcq();
  EXPECT_FALSE(f.net.poll_tcq(f.sender).has_value());
}

}  // namespace
}  // namespace lmp::comm
