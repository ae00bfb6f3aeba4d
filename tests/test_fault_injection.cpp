#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/dispatcher.h"
#include "comm/msg_codec.h"
#include "obs/tracer.h"
#include "sim/simulation.h"
#include "tofu/fault.h"
#include "tofu/network.h"

namespace lmp {
namespace {

using namespace std::chrono_literals;

// --- injector unit tests ------------------------------------------------

TEST(FaultInjector, DisabledByDefault) {
  const tofu::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  tofu::FaultInjector inj(plan);
  const tofu::FaultDecision d = inj.decide(0, 1, 0x1234);
  EXPECT_FALSE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_FALSE(d.corrupt);
  EXPECT_EQ(d.delay_polls, 0);
  EXPECT_EQ(inj.stats().decisions.load(), 0u);
}

TEST(FaultInjector, ValidatesPlan) {
  tofu::FaultPlan bad;
  bad.drop_rate = 1.5;
  EXPECT_THROW(tofu::FaultInjector{bad}, std::invalid_argument);
  bad = {};
  bad.corrupt_rate = -0.1;
  EXPECT_THROW(tofu::FaultInjector{bad}, std::invalid_argument);
  bad = {};
  bad.drop_rate = 0.1;
  bad.max_delay_polls = 0;
  EXPECT_THROW(tofu::FaultInjector{bad}, std::invalid_argument);
  bad = {};
  bad.dead_tnis = {64};
  EXPECT_THROW(tofu::FaultInjector{bad}, std::invalid_argument);
}

TEST(FaultInjector, DeterministicInMessageIdentity) {
  tofu::FaultPlan plan;
  plan.drop_rate = 0.3;
  plan.delay_rate = 0.3;
  plan.duplicate_rate = 0.3;
  plan.corrupt_rate = 0.3;
  const tofu::FaultInjector a(plan);
  const tofu::FaultInjector b(plan);
  for (std::uint64_t e = 0; e < 200; ++e) {
    const auto da = a.decide(3, 7, e);
    const auto db = b.decide(3, 7, e);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.delay_polls, db.delay_polls);
    EXPECT_EQ(da.corrupt_pos, db.corrupt_pos);
  }
}

TEST(FaultInjector, SeedAndEndpointsChangeOutcomes) {
  tofu::FaultPlan plan;
  plan.drop_rate = 0.5;
  tofu::FaultPlan plan2 = plan;
  plan2.seed = 99;
  const tofu::FaultInjector a(plan);
  const tofu::FaultInjector b(plan2);
  int differs = 0;
  for (std::uint64_t e = 0; e < 256; ++e) {
    differs += a.decide(0, 1, e).drop != b.decide(0, 1, e).drop;
    differs += a.decide(0, 1, e).drop != a.decide(1, 0, e).drop;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultInjector, RatesRoughlyHonored) {
  tofu::FaultPlan plan;
  plan.drop_rate = 0.25;
  const tofu::FaultInjector inj(plan);
  int drops = 0;
  constexpr int kN = 4000;
  for (std::uint64_t e = 0; e < kN; ++e) drops += inj.decide(0, 1, e).drop;
  EXPECT_GT(drops, kN / 8);
  EXPECT_LT(drops, kN / 2);
}

TEST(FaultInjector, TniDownMask) {
  tofu::FaultPlan plan;
  plan.dead_tnis = {1, 4};
  const tofu::FaultInjector inj(plan);
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.message_faults());
  EXPECT_TRUE(inj.tni_down(1));
  EXPECT_TRUE(inj.tni_down(4));
  EXPECT_FALSE(inj.tni_down(0));
  EXPECT_FALSE(inj.tni_down(-1));
  EXPECT_FALSE(inj.tni_down(63));
}

// --- permanent faults ----------------------------------------------------

TEST(FaultInjector, LinkDownOnlyPlanArmsInjector) {
  // A plan with *only* permanent faults must still count as enabled —
  // otherwise the network never attaches the injector and a severed
  // link would silently carry traffic.
  tofu::FaultPlan plan;
  plan.down_axes = {5};
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.permanent_faults());
  EXPECT_FALSE(plan.message_faults());

  tofu::FaultPlan crash;
  crash.crashed_ranks = {3};
  EXPECT_TRUE(crash.enabled());
  EXPECT_TRUE(crash.permanent_faults());
}

TEST(FaultInjector, ValidatesPermanentFaultFields) {
  tofu::FaultPlan bad;
  bad.down_axes = {6};  // axes are 0..5
  EXPECT_THROW(tofu::FaultInjector{bad}, std::invalid_argument);
  bad = {};
  bad.down_axes = {-1};
  EXPECT_THROW(tofu::FaultInjector{bad}, std::invalid_argument);
  bad = {};
  bad.crashed_ranks = {-2};
  EXPECT_THROW(tofu::FaultInjector{bad}, std::invalid_argument);
}

TEST(FaultInjector, UnreachableNeedsMappedProcsAndOnset) {
  tofu::FaultPlan plan;
  plan.crashed_ranks = {1};
  tofu::FaultInjector inj(plan);
  inj.map_procs(4);
  // Onset clock at zero: the fault has not manifested yet.
  EXPECT_FALSE(inj.unreachable(0, 1));
  inj.note_put();
  EXPECT_TRUE(inj.unreachable(0, 1));
  EXPECT_TRUE(inj.unreachable(1, 0));
  EXPECT_FALSE(inj.unreachable(0, 2));
  EXPECT_FALSE(inj.unreachable(2, 2));
  EXPECT_FALSE(inj.unreachable(1, 1));  // self-route never leaves the node
  const std::string why = inj.unreachable_reason(0, 1);
  EXPECT_NE(why.find("crashed"), std::string::npos) << why;
}

TEST(NetworkFaults, AbortFabricUnblocksWaitsAndRefusesPuts) {
  tofu::FaultPlan plan;  // no faults needed — abort is orthogonal
  tofu::Network net(2);
  std::vector<double> src(8, 1.0), dst(8, 0.0);
  const tofu::Stadd ss = net.reg_mem(0, src.data(), 64);
  const tofu::Stadd ds = net.reg_mem(1, dst.data(), 64);
  const tofu::VcqId v0 = net.create_vcq(0, 0, 0);
  const tofu::VcqId v1 = net.create_vcq(1, 0, 0);
  (void)plan;
  net.abort_fabric("rank 1 failed");
  EXPECT_TRUE(net.fabric_aborted());
  try {
    net.put(v0, v1, ss, 0, ds, 0, 64, 7);
    FAIL() << "expected JobAbortedError";
  } catch (const tofu::JobAbortedError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 failed"), std::string::npos);
  }
  // A wait with a long deadline returns promptly once aborted.
  EXPECT_THROW(net.wait_mrq(v1, std::chrono::milliseconds(60000)),
               tofu::JobAbortedError);
  EXPECT_THROW(net.wait_tcq(v0, std::chrono::milliseconds(60000)),
               tofu::JobAbortedError);
}

// --- msg codec reliability fields --------------------------------------

TEST(MsgCodec, SeqAndCrcRoundTrip) {
  comm::Edata e{comm::MsgKind::kReverse, 21, 3, 0xDEADBEEFu, 0xAB, 0xCD};
  const comm::Edata d = comm::Edata::decode(e.encode());
  EXPECT_EQ(d.kind, e.kind);
  EXPECT_EQ(d.dir, e.dir);
  EXPECT_EQ(d.slot, e.slot);
  EXPECT_EQ(d.value, e.value);
  EXPECT_EQ(d.seq, e.seq);
  EXPECT_EQ(d.crc, e.crc);
}

TEST(MsgCodec, PayloadCrcCatchesFlips) {
  std::vector<double> payload{1.0, 2.0, 3.0};
  const std::uint8_t good =
      comm::payload_crc(42, payload.data(), payload.size() * sizeof(double));
  // Flip one payload byte: CRC must change.
  auto* bytes = reinterpret_cast<unsigned char*>(payload.data());
  bytes[5] ^= 0x5A;
  EXPECT_NE(good, comm::payload_crc(42, payload.data(),
                                    payload.size() * sizeof(double)));
  bytes[5] ^= 0x5A;
  // Flip one value bit: CRC must change too (piggyback protection).
  EXPECT_NE(good, comm::payload_crc(42 ^ (1u << 17), payload.data(),
                                    payload.size() * sizeof(double)));
  EXPECT_STREQ(comm::kind_name(comm::MsgKind::kRetransmitReq),
               "retransmit-req");
}

// --- network-level fault semantics --------------------------------------

struct NetFixture {
  tofu::Network net;
  std::vector<double> src, dst;
  tofu::Stadd ss, ds;
  tofu::VcqId v0, v1;

  explicit NetFixture(const tofu::FaultPlan& plan, int src_tni = 0,
                      int dst_tni = 0)
      : net(2), src(16, 1.25), dst(16, 0.0) {
    net.set_fault_injector(std::make_shared<tofu::FaultInjector>(plan));
    ss = net.reg_mem(0, src.data(), src.size() * 8);
    ds = net.reg_mem(1, dst.data(), dst.size() * 8);
    v0 = net.create_vcq(0, src_tni, 0);
    v1 = net.create_vcq(1, dst_tni, 0);
  }
};

TEST(NetworkFaults, SeveredRouteThrowsForAllPutModes) {
  tofu::FaultPlan plan;
  plan.crashed_ranks = {1};
  NetFixture f(plan);
  // Data, retransmit, control, piggyback: a severed link carries nothing.
  EXPECT_THROW(f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 64, 7),
               tofu::UnreachableError);
  EXPECT_THROW(f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 64, 7,
                         tofu::PutMode::kRetransmit),
               tofu::UnreachableError);
  EXPECT_THROW(f.net.put_piggyback(f.v0, f.v1, 0x55, tofu::PutMode::kControl),
               tofu::UnreachableError);
  EXPECT_THROW(f.net.put_piggyback(f.v0, f.v1, 0x55), tofu::UnreachableError);
  EXPECT_EQ(f.net.fault_injector()->stats().unreachable_puts.load(), 4u);
  EXPECT_DOUBLE_EQ(f.dst[0], 0.0);
}

TEST(NetworkFaults, OnsetClockDelaysPermanentFault) {
  tofu::FaultPlan plan;
  plan.crashed_ranks = {1};
  plan.fault_onset_puts = 2;  // the first two puts still get through
  NetFixture f(plan);
  EXPECT_NO_THROW(f.net.put_piggyback(f.v0, f.v1, 0x1));
  EXPECT_NO_THROW(f.net.put_piggyback(f.v0, f.v1, 0x2));
  EXPECT_THROW(f.net.put_piggyback(f.v0, f.v1, 0x3), tofu::UnreachableError);
  EXPECT_EQ(f.net.fault_injector()->stats().fabric_puts.load(), 3u);
}

TEST(NetworkFaults, DropSwallowsNoticeButPostsTcq) {
  tofu::FaultPlan plan;
  plan.drop_rate = 1.0;
  NetFixture f(plan);
  f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 64, 7);
  EXPECT_TRUE(f.net.poll_tcq(f.v0).has_value());  // local completion fires
  EXPECT_FALSE(f.net.poll_mrq(f.v1).has_value());
  EXPECT_DOUBLE_EQ(f.dst[0], 0.0);  // payload never arrived
  EXPECT_EQ(f.net.fault_injector()->stats().dropped.load(), 1u);
}

TEST(NetworkFaults, RetransmitBypassesInjector) {
  tofu::FaultPlan plan;
  plan.drop_rate = 1.0;  // every *data* put is dropped
  NetFixture f(plan);
  f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 64, 7, tofu::PutMode::kRetransmit);
  const auto mrq = f.net.poll_mrq(f.v1);
  ASSERT_TRUE(mrq.has_value());
  EXPECT_FALSE(mrq->control);
  EXPECT_DOUBLE_EQ(f.dst[0], 1.25);
  // Fire-and-forget: no local TCQ completion for replays.
  EXPECT_FALSE(f.net.poll_tcq(f.v0).has_value());
  EXPECT_EQ(f.net.stats().retransmit_puts.load(), 1u);
}

TEST(NetworkFaults, DelaySurfacesOnLaterPoll) {
  tofu::FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.max_delay_polls = 4;
  NetFixture f(plan);
  f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 8, 3);
  EXPECT_DOUBLE_EQ(f.dst[0], 1.25);  // bytes land immediately...
  int polls = 0;
  while (!f.net.poll_mrq(f.v1).has_value()) {  // ...the notice later
    ASSERT_LT(++polls, 8);
  }
  EXPECT_GE(polls, 0);
  EXPECT_EQ(f.net.fault_injector()->stats().delayed.load(), 1u);
}

TEST(NetworkFaults, DelayBudgetCountsOnlyDataPollsAfterThePut) {
  // Complements DelaySurfacesOnLaterPoll with the exact count. Empty
  // polls may skip the VCQ lock, but only while nothing is delayed: a
  // pending budget must still be charged once per data poll, and never
  // by control polls or by the empty polls that came before the put.
  tofu::FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.max_delay_polls = 8;
  // decide() is a pure function of (plan, procs, edata): pick an edata
  // whose budget leaves several empty polls ahead of the notice.
  const tofu::FaultInjector oracle(plan);
  std::uint64_t edata = 0;
  while (oracle.decide(0, 1, edata).delay_polls < 5) ++edata;
  const int budget = oracle.decide(0, 1, edata).delay_polls;

  NetFixture f(plan);
  for (int i = 0; i < 100; ++i) ASSERT_FALSE(f.net.poll_mrq(f.v1).has_value());
  f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 8, edata);
  for (int poll = 1; poll < budget; ++poll) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_FALSE(f.net.poll_control(f.v1).has_value());
    }
    ASSERT_FALSE(f.net.poll_mrq(f.v1).has_value()) << "poll " << poll;
  }
  const auto notice = f.net.poll_mrq(f.v1);
  ASSERT_TRUE(notice.has_value()) << "budget " << budget;
  EXPECT_EQ(notice->edata, edata);
  EXPECT_FALSE(f.net.poll_mrq(f.v1).has_value());
}

TEST(NetworkFaults, DuplicateDeliversTwice) {
  tofu::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  NetFixture f(plan);
  f.net.put_piggyback(f.v0, f.v1, 0x55);
  const auto first = f.net.poll_mrq(f.v1);
  const auto second = f.net.poll_mrq(f.v1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->edata, second->edata);
  EXPECT_EQ(f.net.fault_injector()->stats().duplicated.load(), 1u);
}

TEST(NetworkFaults, CorruptFlipsExactlyOnePayloadByte) {
  tofu::FaultPlan plan;
  plan.corrupt_rate = 1.0;
  NetFixture f(plan);
  f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 128, 9);
  ASSERT_TRUE(f.net.poll_mrq(f.v1).has_value());
  const auto* a = reinterpret_cast<const unsigned char*>(f.src.data());
  const auto* b = reinterpret_cast<const unsigned char*>(f.dst.data());
  int diffs = 0;
  for (int i = 0; i < 128; ++i) {
    if (a[i] != b[i]) {
      ++diffs;
      EXPECT_EQ(a[i] ^ b[i], 0x5A);
    }
  }
  EXPECT_EQ(diffs, 1);
}

TEST(NetworkFaults, CorruptPiggybackFlipsValueBit) {
  tofu::FaultPlan plan;
  plan.corrupt_rate = 1.0;
  NetFixture f(plan);
  const std::uint64_t sent = 0xABCD0000ull << 16 | 0x1234u;
  f.net.put_piggyback(f.v0, f.v1, sent);
  const auto mrq = f.net.poll_mrq(f.v1);
  ASSERT_TRUE(mrq.has_value());
  const std::uint64_t diff = mrq->edata ^ sent;
  EXPECT_NE(diff, 0u);                       // one bit flipped...
  EXPECT_EQ(diff & (diff - 1), 0u);          // ...exactly one...
  EXPECT_EQ(diff >> 32, 0u);                 // ...within the value field
}

TEST(NetworkFaults, DeadTniSwallowsPuts) {
  tofu::FaultPlan plan;
  plan.dead_tnis = {2};
  NetFixture f(plan, /*src_tni=*/0, /*dst_tni=*/2);
  f.net.put(f.v0, f.v1, f.ss, 0, f.ds, 0, 8, 1);
  EXPECT_TRUE(f.net.poll_tcq(f.v0).has_value());
  EXPECT_FALSE(f.net.poll_mrq(f.v1).has_value());
  EXPECT_DOUBLE_EQ(f.dst[0], 0.0);
  EXPECT_EQ(f.net.fault_injector()->stats().tni_drops.load(), 1u);
  // Healthy-TNI traffic is untouched (no message faults in the plan).
  const tofu::VcqId v2 = f.net.create_vcq(1, 1, 0);
  f.net.put(f.v0, v2, f.ss, 0, f.ds, 0, 8, 1);
  EXPECT_TRUE(f.net.poll_mrq(v2).has_value());
}

TEST(NetworkFaults, ControlPutsSegregatedFromDataPolls) {
  tofu::FaultPlan plan;
  plan.drop_rate = 1.0;
  NetFixture f(plan);
  f.net.put_piggyback(f.v0, f.v1, 0x77, tofu::PutMode::kControl);
  // Control messages bypass the injector and never surface on the data
  // MRQ path — only poll_control sees them.
  EXPECT_FALSE(f.net.poll_mrq(f.v1).has_value());
  const auto ctl = f.net.poll_control(f.v1);
  ASSERT_TRUE(ctl.has_value());
  EXPECT_TRUE(ctl->control);
  EXPECT_EQ(ctl->edata, 0x77u);
  EXPECT_FALSE(f.net.poll_control(f.v1).has_value());
  EXPECT_EQ(f.net.stats().control_puts.load(), 1u);
}

// --- bounded waits -------------------------------------------------------

TEST(NetworkTimeouts, WaitMrqThrowsDiagnosticPastDeadline) {
  tofu::Network net(1);
  const tofu::VcqId v = net.create_vcq(0, 3, 0);
  try {
    net.wait_mrq(v, 30ms);
    FAIL() << "expected CommTimeoutError";
  } catch (const tofu::CommTimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MRQ"), std::string::npos) << what;
    EXPECT_NE(what.find("tni 3"), std::string::npos) << what;
  }
}

TEST(NetworkTimeouts, WaitTcqThrowsPastDeadline) {
  tofu::Network net(1);
  const tofu::VcqId v = net.create_vcq(0, 0, 0);
  EXPECT_THROW(net.wait_tcq(v, 30ms), tofu::CommTimeoutError);
}

TEST(NetworkTimeouts, DispatcherWaitNamesChannel) {
  tofu::Network net(1);
  const tofu::VcqId v = net.create_vcq(0, 0, 0);
  comm::NoticeDispatcher d(&net, v);
  d.set_wait_deadline(30ms);
  try {
    d.wait(comm::MsgKind::kForward, 5);
    FAIL() << "expected CommTimeoutError";
  } catch (const tofu::CommTimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("forward"), std::string::npos) << what;
    EXPECT_NE(what.find("dir 5"), std::string::npos) << what;
  }
}

// --- put hardening -------------------------------------------------------

TEST(NetworkHardening, OffsetOverflowRejected) {
  tofu::Network net(2);
  std::vector<std::byte> a(32), b(32);
  const tofu::Stadd sa = net.reg_mem(0, a.data(), 32);
  const tofu::Stadd sb = net.reg_mem(1, b.data(), 32);
  const tofu::VcqId v0 = net.create_vcq(0, 0, 0);
  const tofu::VcqId v1 = net.create_vcq(1, 0, 0);
  // offset + length wraps around 2^64 — must be caught, not UB.
  const std::uint64_t huge = ~std::uint64_t{0} - 7;
  EXPECT_THROW(net.put(v0, v1, sa, huge, sb, 0, 16), std::out_of_range);
  EXPECT_THROW(net.put(v0, v1, sa, 0, sb, huge, 16), std::out_of_range);
  EXPECT_THROW(net.resolve(0, sa, huge, 16), std::out_of_range);
}

TEST(NetworkHardening, ZeroLengthPutStillValidatesStadds) {
  tofu::Network net(2);
  std::vector<std::byte> a(32), b(32);
  const tofu::Stadd sa = net.reg_mem(0, a.data(), 32);
  const tofu::Stadd sb = net.reg_mem(1, b.data(), 32);
  const tofu::VcqId v0 = net.create_vcq(0, 0, 0);
  const tofu::VcqId v1 = net.create_vcq(1, 0, 0);
  EXPECT_THROW(net.put(v0, v1, sa + 999, 0, sb, 0, 0), std::invalid_argument);
  EXPECT_THROW(net.put(v0, v1, sa, 0, sb, 64, 0), std::out_of_range);
  EXPECT_NO_THROW(net.put(v0, v1, sa, 0, sb, 0, 0));
}

TEST(NetworkHardening, ErrorsNameTheAccess) {
  tofu::Network net(1);
  std::vector<std::byte> a(32);
  const tofu::Stadd sa = net.reg_mem(0, a.data(), 32);
  try {
    net.resolve(0, sa, 16, 17);
    FAIL();
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("32 bytes"), std::string::npos) << what;
  }
  try {
    net.resolve(0, sa + 5, 0, 1);
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown stadd"), std::string::npos);
  }
}

// --- health report -------------------------------------------------------

TEST(HealthReport, AccumulatesAndFormats) {
  sim::JobHealth a;
  EXPECT_TRUE(a.clean());
  a.nacks_sent = 2;
  a.tnis_in_use = 5;
  comm::CommHealthReport b;
  b.nacks_sent = 3;
  b.crc_rejects = 1;
  b.tnis_in_use = 6;
  a += b;
  EXPECT_EQ(a.nacks_sent, 5u);
  EXPECT_EQ(a.crc_rejects, 1u);
  EXPECT_EQ(a.tnis_in_use, 6);
  EXPECT_FALSE(a.clean());
  const std::string table = sim::format_health_table(a);
  EXPECT_NE(table.find("nacks_sent"), std::string::npos);
  EXPECT_NE(table.find("tnis_in_use"), std::string::npos);
  EXPECT_NE(table.find("5"), std::string::npos);
}

// --- chaos sweep: faulted EAM trajectories must match the clean run -----

sim::SimOptions chaos_opts() {
  sim::SimOptions o;
  o.config = md::SimConfig::eam_copper();
  o.cells = {5, 5, 5};
  o.rank_grid = {2, 1, 1};
  o.comm = "6tni_p2p";
  o.thermo_every = 5;
  return o;
}

void expect_bitwise_equal(const sim::JobResult& clean,
                          const sim::JobResult& chaos) {
  ASSERT_EQ(clean.thermo.size(), chaos.thermo.size());
  for (std::size_t i = 0; i < clean.thermo.size(); ++i) {
    EXPECT_EQ(clean.thermo[i].step, chaos.thermo[i].step);
    EXPECT_EQ(clean.thermo[i].state.temperature,
              chaos.thermo[i].state.temperature);
    EXPECT_EQ(clean.thermo[i].state.pressure, chaos.thermo[i].state.pressure);
    EXPECT_EQ(clean.thermo[i].state.total(), chaos.thermo[i].state.total());
  }
}

constexpr int kChaosSteps = 25;

TEST(ChaosSweep, CleanRunHasZeroReliabilityOverhead) {
  const auto r = run_simulation(chaos_opts(), kChaosSteps);
  EXPECT_TRUE(r.health.clean());
  EXPECT_EQ(r.health.retransmit_puts, 0u);
  EXPECT_EQ(r.health.nacks_sent, 0u);
  EXPECT_EQ(r.health.tnis_in_use, 6);
  EXPECT_EQ(r.health.tnis_down, 0);
}

TEST(ChaosSweep, DropRecoversViaRetransmit) {
  const auto clean = run_simulation(chaos_opts(), kChaosSteps);
  sim::SimOptions o = chaos_opts();
  o.faults.drop_rate = 0.03;
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  EXPECT_GT(chaos.health.notices_dropped, 0u);
  EXPECT_GT(chaos.health.nacks_sent, 0u);
  EXPECT_GT(chaos.health.retransmits_served, 0u);
  EXPECT_GT(chaos.health.retransmit_puts, 0u);
}

TEST(ChaosSweep, DelayToleratedByDispatcher) {
  const auto clean = run_simulation(chaos_opts(), kChaosSteps);
  sim::SimOptions o = chaos_opts();
  o.faults.delay_rate = 0.3;
  o.faults.max_delay_polls = 12;
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  EXPECT_GT(chaos.health.notices_delayed, 0u);
}

TEST(ChaosSweep, DuplicatesSuppressed) {
  const auto clean = run_simulation(chaos_opts(), kChaosSteps);
  sim::SimOptions o = chaos_opts();
  o.faults.duplicate_rate = 0.3;
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  EXPECT_GT(chaos.health.notices_duplicated, 0u);
  EXPECT_GT(chaos.health.duplicates_dropped, 0u);
}

TEST(ChaosSweep, CorruptionCaughtByChecksum) {
  const auto clean = run_simulation(chaos_opts(), kChaosSteps);
  sim::SimOptions o = chaos_opts();
  o.faults.corrupt_rate = 0.03;
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  EXPECT_GT(chaos.health.payloads_corrupted, 0u);
  EXPECT_GT(chaos.health.crc_rejects, 0u);
  EXPECT_GT(chaos.health.retransmits_served, 0u);
}

TEST(ChaosSweep, CombinedFaultsStillBitwiseIdentical) {
  const auto clean = run_simulation(chaos_opts(), kChaosSteps);
  sim::SimOptions o = chaos_opts();
  o.faults.drop_rate = 0.02;
  o.faults.delay_rate = 0.1;
  o.faults.duplicate_rate = 0.1;
  o.faults.corrupt_rate = 0.02;
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  EXPECT_FALSE(chaos.health.clean());
}

TEST(ChaosSweep, NewtonOffCombinedFaultsStillBitwiseIdentical) {
  // Without Newton a neighbor's forward may run one step ahead, so two
  // messages per forward channel can be in flight: a CRC reject, drop
  // or delay may hit the older one while the newer is already parked,
  // and the replay must still be consumed before it. LJ on 2x2x2 ranks:
  // EAM's per-step scalar forward holds every neighbor to one forward.
  sim::SimOptions o = chaos_opts();
  o.config = md::SimConfig::lj_melt();
  o.config.newton = false;
  o.cells = {6, 6, 6};
  o.rank_grid = {2, 2, 2};
  const auto clean = run_simulation(o, kChaosSteps);
  o.faults.drop_rate = 0.02;
  o.faults.delay_rate = 0.1;
  o.faults.duplicate_rate = 0.1;
  o.faults.corrupt_rate = 0.02;
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  EXPECT_GT(chaos.health.crc_rejects, 0u);
  EXPECT_GT(chaos.health.retransmits_served, 0u);
}

TEST(ChaosSweep, TniDownRestripesAndMatches) {
  const auto clean = run_simulation(chaos_opts(), kChaosSteps);
  sim::SimOptions o = chaos_opts();
  o.faults.dead_tnis = {2};
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  // Traffic re-striped onto the five survivors before any put was
  // issued, so nothing was ever swallowed by the dead TNI.
  EXPECT_EQ(chaos.health.tnis_in_use, 5);
  EXPECT_EQ(chaos.health.tnis_down, 1);
  EXPECT_EQ(chaos.health.tni_drops, 0u);
}

TEST(ChaosSweep, ParallelVariantSurvivesFaults) {
  // The fine-grained pool stages its reverse payloads and adds them in
  // canonical channel order, so it reproduces bitwise under faults too.
  sim::SimOptions o = chaos_opts();
  o.comm = "opt";
  const auto clean = run_simulation(o, kChaosSteps);
  o.faults.drop_rate = 0.02;
  o.faults.duplicate_rate = 0.1;
  const auto chaos = run_simulation(o, kChaosSteps);
  expect_bitwise_equal(clean, chaos);
  ASSERT_EQ(clean.atoms.size(), chaos.atoms.size());
  for (std::size_t i = 0; i < clean.atoms.size(); ++i) {
    const sim::AtomState& a = clean.atoms[i];
    const sim::AtomState& b = chaos.atoms[i];
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(std::memcmp(&a.pos, &b.pos, sizeof(a.pos)), 0) << "tag " << a.tag;
    EXPECT_EQ(std::memcmp(&a.vel, &b.vel, sizeof(a.vel)), 0) << "tag " << a.tag;
  }
  EXPECT_GT(chaos.health.notices_dropped + chaos.health.notices_duplicated,
            0u);
}

TEST(ChaosSweep, CrcRejectInstantsMatchCounter) {
  // Every counted CRC reject — ring payload, piggyback or in-place
  // forward block — emits exactly one "crc.rejected" trace instant.
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  obs::Tracer::instance().reset();
  obs::set_trace_categories(static_cast<std::uint32_t>(obs::TraceCat::kComm));
  struct CatsOff {
    ~CatsOff() {
      obs::set_trace_categories(0);
      obs::Tracer::instance().reset();
    }
  } guard;

  sim::SimOptions o = chaos_opts();
  o.faults.corrupt_rate = 0.03;
  const auto chaos = run_simulation(o, 10);
  ASSERT_EQ(obs::Tracer::instance().events_dropped(), 0u);
  std::uint64_t instants = 0;
  for (const obs::CollectedEvent& e : obs::Tracer::instance().snapshot_events()) {
    if (e.event.kind == obs::TraceEvent::kInstant &&
        std::strcmp(e.event.name, "crc.rejected") == 0) {
      ++instants;
    }
  }
  EXPECT_GT(chaos.health.crc_rejects, 0u);
  EXPECT_EQ(instants, chaos.health.crc_rejects);
}

}  // namespace
}  // namespace lmp
