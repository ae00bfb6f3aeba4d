// Live telemetry plane tests: ring-buffered time series and their
// rolling-window math, counter-delta restart handling, per-tenant SLO
// accounting with breach transitions, the sampler + snapshot JSON, the
// stats/watch protocol verbs, and the Unix-socket stream endpoint.
//
// Suite naming is load-bearing for ci.sh: TimeSeries / SloAccountant /
// TelemetrySampler / StreamWatch run in the TSan slice (admission-only
// servers, no simulation work), while LiveTelemetry runs real jobs and
// stays out of it.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/msg_codec.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/job_server.h"
#include "serve/stream_endpoint.h"
#include "serve/telemetry.h"
#include "util/json_mini.h"
#include "util/stats.h"
#include "test_tmp.h"

namespace lmp {
namespace {

using test::tmp_path;
using test::fresh_dir;

// --- time series --------------------------------------------------------

TEST(TimeSeries, EmptyWindowAggregatesToZero) {
  obs::TimeSeries s(8);
  const obs::WindowAggregate a = s.aggregate(1000, 500);
  EXPECT_EQ(a.count, 0u);
  EXPECT_EQ(a.sum, 0.0);
  EXPECT_EQ(a.p50, 0.0);
  EXPECT_EQ(a.p99, 0.0);
  EXPECT_EQ(a.rate_per_s, 0.0);
}

TEST(TimeSeries, SingleSampleIsItsOwnEveryPercentile) {
  obs::TimeSeries s(8);
  s.append(100, 42.0);
  const obs::WindowAggregate a = s.aggregate(100, 1000);
  EXPECT_EQ(a.count, 1u);
  EXPECT_EQ(a.sum, 42.0);
  EXPECT_EQ(a.min, 42.0);
  EXPECT_EQ(a.max, 42.0);
  EXPECT_EQ(a.mean, 42.0);
  EXPECT_EQ(a.p50, 42.0);
  EXPECT_EQ(a.p95, 42.0);
  EXPECT_EQ(a.p99, 42.0);
}

TEST(TimeSeries, RingWrapAroundKeepsNewestCapacitySamples) {
  obs::TimeSeries s(8);
  for (int i = 0; i < 20; ++i) s.append(i, static_cast<double>(i));
  EXPECT_EQ(s.capacity(), 8u);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.total_appended(), 20u);
  const std::vector<obs::Sample> got = s.samples();
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].t_ms, 12 + i);  // oldest first
    EXPECT_EQ(got[static_cast<std::size_t>(i)].value, 12.0 + i);
  }
}

TEST(TimeSeries, WindowExcludesSamplesOlderThanCutoff) {
  obs::TimeSeries s(64);
  for (int i = 0; i < 10; ++i) s.append(i * 100, 1.0);  // t = 0..900
  const obs::WindowAggregate a = s.aggregate(900, 400);  // [500, 900]
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.sum, 5.0);
  EXPECT_EQ(s.samples_since(500).size(), 5u);
}

TEST(TimeSeries, PercentilesInterpolateOverSortedValues) {
  std::vector<obs::Sample> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back({static_cast<std::int64_t>(i), static_cast<double>(i)});
  }
  const obs::WindowAggregate a = obs::aggregate_samples(samples, 1000);
  EXPECT_EQ(a.count, 100u);
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, 100.0);
  EXPECT_NEAR(a.mean, 50.5, 1e-12);
  EXPECT_NEAR(a.p50, 50.5, 0.5);
  EXPECT_NEAR(a.p95, 95.05, 0.5);
  EXPECT_NEAR(a.p99, 99.01, 0.5);
  // Same interpolation as the validating entry point, bit for bit.
  std::vector<double> values;
  for (const obs::Sample& s : samples) values.push_back(s.value);
  EXPECT_EQ(a.p50, util::percentile(values, 50.0));
  EXPECT_EQ(a.p95, util::percentile(values, 95.0));
  EXPECT_EQ(a.p99, util::percentile(values, 99.0));
  // rate = sum / window-seconds
  EXPECT_NEAR(a.rate_per_s, 5050.0 / 1.0, 1e-9);
}

TEST(TimeSeries, CounterDeltaPrimesThenTracksGrowth) {
  obs::CounterDelta d;
  EXPECT_EQ(d.advance(100), 0u);  // first observation primes
  EXPECT_EQ(d.advance(150), 50u);
  EXPECT_EQ(d.advance(150), 0u);
}

TEST(TimeSeries, CounterDeltaTreatsResetAsRestartFromZero) {
  obs::CounterDelta d;
  (void)d.advance(1000);
  EXPECT_EQ(d.advance(1500), 500u);
  // The registry was reset mid-flight: the counter went backwards. The
  // delta must be the current value, never a two's-complement wrap.
  EXPECT_EQ(d.advance(30), 30u);
  EXPECT_EQ(d.advance(70), 40u);
}

TEST(TimeSeries, RegistryFindOrCreateKeepsStableReferences) {
  obs::SeriesRegistry reg(16);
  obs::TimeSeries& a = reg.series("a");
  a.append(1, 1.0);
  obs::TimeSeries& b = reg.series("b");
  (void)b;
  EXPECT_EQ(&reg.series("a"), &a);
  EXPECT_EQ(reg.find("a"), &a);
  EXPECT_EQ(reg.find("missing"), nullptr);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
}

TEST(TimeSeries, ConcurrentAppendAndAggregateStaySane) {
  obs::TimeSeries s(128);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      s.append(++t, 1.0);
    }
  });
  // Keep reading until the writer has demonstrably lapped the ring at
  // least once (a loaded CI host can starve it for the first while).
  while (s.total_appended() < 1000) {
    const obs::WindowAggregate a = s.aggregate(1 << 30, 1 << 30);
    EXPECT_LE(a.count, 128u);
    EXPECT_EQ(a.sum, static_cast<double>(a.count));
    const std::vector<obs::Sample> snap = s.samples();
    for (std::size_t k = 1; k < snap.size(); ++k) {
      EXPECT_LT(snap[k - 1].t_ms, snap[k].t_ms);  // oldest-first, no tears
    }
    std::this_thread::yield();
  }
  stop = true;
  writer.join();
  EXPECT_EQ(s.size(), 128u);
}

// --- SLO accounting -----------------------------------------------------

TEST(SloAccountant, DeadlineMissEntersBreachAndWindowExpiryRecovers) {
  obs::SloPolicy policy;
  policy.window_ms = 1000;
  obs::SloAccountant slo(policy);

  slo.record_deadline("beta", 100, /*hit=*/false);
  std::vector<obs::TenantSlo> out = slo.evaluate(150, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].breach_deadline);
  EXPECT_TRUE(out[0].breached());
  EXPECT_EQ(out[0].deadline_misses, 1u);
  EXPECT_EQ(out[0].deadline_hit_rate, 0.0);
  EXPECT_NE(out[0].breach_detail().find("deadline-hit-rate"),
            std::string::npos);
  EXPECT_EQ(slo.breaches_entered(), 1u);
  EXPECT_EQ(slo.breached_tenants(), std::set<std::string>{"beta"});

  // The miss ages out of the rolling window: recovery edge, no samples.
  out = slo.evaluate(5000, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].breached());
  EXPECT_EQ(out[0].deadline_hit_rate, 1.0);  // no outcomes in window
  EXPECT_TRUE(slo.breached_tenants().empty());

  const std::vector<obs::SloBreachEvent> events = slo.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].entered);
  EXPECT_FALSE(events[1].entered);
  EXPECT_EQ(events[1].detail, "recovered");
  EXPECT_EQ(slo.breaches_entered(), 1u);  // recovery is not an enter edge
}

TEST(SloAccountant, OneMissAmongFewOutcomesTripsTheDefaultHitRate) {
  obs::SloAccountant slo;  // default policy: hit-rate floor 0.99
  for (int i = 0; i < 20; ++i) slo.record_deadline("acme", 10 + i, true);
  slo.record_deadline("acme", 50, false);
  const std::vector<obs::TenantSlo> out = slo.evaluate(100, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].deadline_hits, 20u);
  EXPECT_EQ(out[0].deadline_misses, 1u);
  EXPECT_TRUE(out[0].breach_deadline);
}

TEST(SloAccountant, QueueWaitP99AssessedOnlyWhenConfigured) {
  obs::SloPolicy strict;
  strict.window_ms = 10000;
  strict.queue_wait_p99_ms = 10.0;
  obs::SloAccountant slo;  // default policy leaves the ceiling off
  slo.set_policy("strict", strict);

  for (int i = 0; i < 10; ++i) {
    slo.record_queue_wait("strict", 100 + i, 500.0);
    slo.record_queue_wait("lax", 100 + i, 500.0);
  }
  const std::vector<obs::TenantSlo> out = slo.evaluate(200, {});
  ASSERT_EQ(out.size(), 2u);
  for (const obs::TenantSlo& t : out) {
    EXPECT_GT(t.queue_wait_p99_ms, 100.0) << t.tenant;
    EXPECT_EQ(t.breach_queue_wait, t.tenant == "strict") << t.tenant;
  }
}

TEST(SloAccountant, StepFloorOnlyJudgesTenantsWithARunningJob) {
  obs::SloPolicy policy;
  policy.window_ms = 1000;
  policy.steps_per_sec_min = 100.0;
  obs::SloAccountant slo(policy);
  slo.record_steps("idle", 500, 0.0);
  slo.record_steps("busy", 500, 1.0);  // 1 step/window << floor
  const std::vector<obs::TenantSlo> out = slo.evaluate(1000, {"busy"});
  ASSERT_EQ(out.size(), 2u);
  for (const obs::TenantSlo& t : out) {
    EXPECT_EQ(t.active, t.tenant == "busy");
    EXPECT_EQ(t.breach_step_rate, t.tenant == "busy") << t.tenant;
  }
}

TEST(SloAccountant, RollbackBudgetZeroMeansAnyRollbackBreaches) {
  obs::SloPolicy policy;
  policy.window_ms = 1000;
  policy.integrity_rollback_budget = 0;
  obs::SloAccountant slo(policy);
  slo.record_rollbacks("t", 100, 1.0);
  const std::vector<obs::TenantSlo> out = slo.evaluate(200, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].integrity_rollbacks, 1u);
  EXPECT_TRUE(out[0].breach_rollbacks);
  EXPECT_NE(out[0].breach_detail().find("integrity-rollbacks"),
            std::string::npos);
}

TEST(SloAccountant, EventHistoryIsBounded) {
  obs::SloPolicy policy;
  policy.window_ms = 10;
  obs::SloAccountant slo(policy);
  // Alternate breach/recover: each cycle emits two transition events.
  std::int64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    slo.record_deadline("t", t += 5, false);
    (void)slo.evaluate(t, {});        // in breach (miss inside window)
    (void)slo.evaluate(t += 1000, {});  // window empty again: recovered
  }
  EXPECT_EQ(slo.events().size(), 256u);
  EXPECT_EQ(slo.breaches_entered(), 200u);
}

// --- protocol round-trips ----------------------------------------------

TEST(TelemetryProtocol, StatsJsonAndWatchRoundTrip) {
  std::vector<char> buf;
  serve::encode_stats_json(buf);
  comm::FrameView f = comm::decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(static_cast<serve::MsgType>(f.type), serve::MsgType::kStatsJson);
  EXPECT_EQ(f.payload_len, 0u);

  buf.clear();
  const std::string doc = "{\"schema\":\"lmp-telemetry-snapshot\"}";
  serve::encode_stats_json_reply(buf, doc);
  f = comm::decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(static_cast<serve::MsgType>(f.type),
            serve::MsgType::kStatsJsonReply);
  EXPECT_EQ(serve::decode_stats_json_reply(f.payload, f.payload_len), doc);

  buf.clear();
  serve::WatchRequest w;
  w.interval_ms = 250;
  w.max_frames = 7;
  serve::encode_watch(buf, w);
  f = comm::decode_frame(buf.data(), buf.size());
  ASSERT_TRUE(f.ok());
  const serve::WatchRequest got = serve::decode_watch(f.payload, f.payload_len);
  EXPECT_EQ(got.interval_ms, 250u);
  EXPECT_EQ(got.max_frames, 7u);
}

// --- sampler + snapshot (admission-only server: TSan-safe) --------------

serve::ServerConfig sampler_config(const std::string& tag) {
  serve::ServerConfig cfg;
  cfg.journal_path = tmp_path("telemetry_" + tag + ".journal");
  cfg.work_dir = fresh_dir("telemetry_" + tag);
  cfg.workers = 0;  // admission only: nothing simulates, nothing races TSan
  cfg.telemetry.interval_ms = 10;
  cfg.telemetry.window_ms = 5000;
  return cfg;
}

serve::SubmitRequest minimal_job(const std::string& tenant,
                                 const std::string& name) {
  serve::SubmitRequest req;
  req.tenant = tenant;
  req.name = name;
  req.script =
      "units lj\nlattice fcc 0.8442\nregion box block 0 2 0 2 0 2\n"
      "create_box 1 box\ncreate_atoms 1 box\nmass 1 1.0\n"
      "pair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve\n"
      "run 10\n";
  return req;
}

TEST(TelemetrySampler, SnapshotJsonIsParsableAndCurrent) {
  serve::JobServer server(sampler_config("snapshot"));
  server.start();
  ASSERT_NE(server.telemetry(), nullptr);
  EXPECT_TRUE(server.submit(minimal_job("acme", "queued")).accepted);

  const std::string json = server.telemetry_snapshot_json();
  const util::JsonValue snap = util::parse_json(json);
  EXPECT_EQ(snap.get_str("schema"), "lmp-telemetry-snapshot");
  EXPECT_EQ(snap.get_int("version"), 2);
  // snapshot_json ticks first: even with no background tick yet, the
  // snapshot reflects the submit that just happened.
  EXPECT_GE(snap.get_int("ticks"), 1);
  const util::JsonValue* server_obj = snap.find("server");
  ASSERT_NE(server_obj, nullptr);
  EXPECT_EQ(server_obj->get_int("queue_depth"), 1);
  const util::JsonValue* jobs = snap.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->items.size(), 1u);
  EXPECT_EQ(jobs->items[0].get_str("tenant"), "acme");
  EXPECT_EQ(jobs->items[0].get_str("state"), "pending");
  EXPECT_EQ(jobs->items[0].get_int("total_steps"), 10);
  server.stop(serve::StopMode::kAbandon);
}

TEST(TelemetrySampler, ConcurrentSnapshotsAndTicksDoNotRace) {
  serve::JobServer server(sampler_config("concurrent"));
  server.start();
  EXPECT_TRUE(server.submit(minimal_job("acme", "q1")).accepted);
  std::atomic<bool> stop{false};
  std::thread prober([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)server.stats();
      (void)server.probe_telemetry();
    }
  });
  for (int i = 0; i < 20; ++i) {
    const util::JsonValue snap =
        util::parse_json(server.telemetry_snapshot_json());
    EXPECT_EQ(snap.get_str("schema"), "lmp-telemetry-snapshot");
  }
  // Let the 10 ms background cadence overlap the probes too.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  prober.join();
  EXPECT_GE(server.telemetry()->ticks(), 20u);
  server.stop(serve::StopMode::kAbandon);
}

TEST(TelemetrySampler, MetricsRegistryResetDoesNotUnderflowCounterSeries) {
  serve::JobServer server(sampler_config("reset"));
  server.start();
  EXPECT_TRUE(server.submit(minimal_job("acme", "q1")).accepted);
  server.telemetry()->tick();  // primes counter deltas past zero
  obs::MetricsRegistry::instance().reset_values();
  server.telemetry()->tick();  // counters went backwards: restart-from-zero
  const obs::SeriesRegistry& series = server.telemetry()->series();
  for (const std::string& name : series.names()) {
    if (name.rfind("counter.", 0) != 0) continue;
    for (const obs::Sample& s : series.find(name)->samples()) {
      EXPECT_LT(s.value, 1e12) << name << " underflowed after reset";
      EXPECT_GE(s.value, 0.0) << name;
    }
  }
  server.stop(serve::StopMode::kAbandon);
}

// --- stream endpoint (Unix socket) --------------------------------------

class WatchClient {
 public:
  explicit WatchClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~WatchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool send_frames(const std::vector<char>& bytes) const {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads whole frames until EOF or `max` frames decoded.
  std::vector<std::string> read_json_frames(std::size_t max) {
    std::vector<std::string> out;
    std::vector<char> buf;
    char chunk[4096];
    while (out.size() < max) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.insert(buf.end(), chunk, chunk + n);
      std::size_t off = 0;
      while (off < buf.size() && out.size() < max) {
        const comm::FrameView f =
            comm::decode_frame(buf.data() + off, buf.size() - off);
        if (f.status == comm::FrameStatus::kNeedMore) break;
        if (!f.ok()) return out;
        off += f.consumed;
        if (static_cast<serve::MsgType>(f.type) ==
            serve::MsgType::kStatsJsonReply) {
          out.push_back(serve::decode_stats_json_reply(f.payload,
                                                       f.payload_len));
        }
      }
      buf.erase(buf.begin(), buf.begin() + static_cast<long>(off));
    }
    return out;
  }

  void shutdown_write() const { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(StreamWatch, StatsRequestOverSocketReturnsOneSnapshot) {
  serve::JobServer server(sampler_config("sock_stats"));
  server.start();
  EXPECT_TRUE(server.submit(minimal_job("acme", "q1")).accepted);
  serve::StreamEndpoint endpoint(server, tmp_path("telemetry_stats.sock"));
  endpoint.start();

  WatchClient client(endpoint.path());
  ASSERT_TRUE(client.connected());
  std::vector<char> req;
  serve::encode_stats_json(req);
  ASSERT_TRUE(client.send_frames(req));
  const std::vector<std::string> frames = client.read_json_frames(1);
  ASSERT_EQ(frames.size(), 1u);
  const util::JsonValue snap = util::parse_json(frames[0]);
  EXPECT_EQ(snap.get_str("schema"), "lmp-telemetry-snapshot");
  EXPECT_EQ(snap.find("server")->get_int("queue_depth"), 1);

  endpoint.stop();
  EXPECT_EQ(endpoint.connections_accepted(), 1u);
  server.stop(serve::StopMode::kAbandon);
}

TEST(StreamWatch, WatchStreamsExactlyMaxFramesThenCloses) {
  serve::JobServer server(sampler_config("sock_watch"));
  server.start();
  serve::StreamEndpoint endpoint(server, tmp_path("telemetry_watch.sock"));
  endpoint.start();

  WatchClient client(endpoint.path());
  ASSERT_TRUE(client.connected());
  std::vector<char> req;
  serve::WatchRequest w;
  w.interval_ms = 5;
  w.max_frames = 3;
  serve::encode_watch(req, w);
  ASSERT_TRUE(client.send_frames(req));
  // Ask for more than max_frames: the stream must end at 3 with EOF.
  const std::vector<std::string> frames = client.read_json_frames(10);
  ASSERT_EQ(frames.size(), 3u);
  for (const std::string& f : frames) {
    EXPECT_EQ(util::parse_json(f).get_str("schema"), "lmp-telemetry-snapshot");
  }
  endpoint.stop();
  server.stop(serve::StopMode::kAbandon);
}

TEST(StreamWatch, EndpointStopCutsAnUnboundedWatchShort) {
  serve::JobServer server(sampler_config("sock_stop"));
  server.start();
  serve::StreamEndpoint endpoint(server, tmp_path("telemetry_stop.sock"));
  endpoint.start();

  WatchClient client(endpoint.path());
  ASSERT_TRUE(client.connected());
  std::vector<char> req;
  serve::WatchRequest w;
  w.interval_ms = 50;
  w.max_frames = 0;  // until the client closes — or the endpoint stops
  serve::encode_watch(req, w);
  ASSERT_TRUE(client.send_frames(req));
  (void)client.read_json_frames(1);  // stream is live
  endpoint.stop();                   // must not hang on the open watch
  EXPECT_TRUE(client.read_json_frames(100).size() < 100u);  // EOF reached
  server.stop(serve::StopMode::kAbandon);
}

// --- end-to-end with real jobs (excluded from the TSan slice) -----------

std::string melt_script(int run_steps, const std::string& extra = "") {
  return "units lj\n"
         "lattice fcc 0.8442\n"
         "region box block 0 3 0 3 0 3\n"
         "create_box 1 box\n"
         "create_atoms 1 box\n"
         "mass 1 1.0\n"
         "velocity all create 1.44 87287\n"
         "pair_style lj/cut 2.5\n"
         "pair_coeff 1 1 1.0 1.0\n"
         "neighbor 0.3 bin\n"
         "neigh_modify every 5 check no\n"
         "fix 1 all nve\n"
         "timestep 0.005\n"
         "thermo 5\n"
         "comm_variant ref\n" +
         extra + "run " + std::to_string(run_steps) + "\n";
}

TEST(LiveTelemetry, JobFinishedBetweenTicksStillCountsItsSteps) {
  // The sampler ticks once at start and then not for an hour: the job
  // runs to completion unseen, and the stats verb's tick is the first to
  // see it. Its steps must still land in the window.
  serve::ServerConfig cfg;
  cfg.journal_path = tmp_path("telemetry_unseen.journal");
  cfg.work_dir = fresh_dir("telemetry_unseen");
  cfg.workers = 1;
  cfg.telemetry.interval_ms = 3600000;
  cfg.telemetry.window_ms = 3600000;
  serve::JobServer server(cfg);
  server.start();
  while (server.telemetry()->ticks() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  serve::SubmitRequest req;
  req.tenant = "acme";
  req.name = "brief";
  req.script = melt_script(20);
  ASSERT_TRUE(server.submit(req).accepted);
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const util::JsonValue snap =
      util::parse_json(server.telemetry_snapshot_json());
  const util::JsonValue* server_obj = snap.find("server");
  ASSERT_NE(server_obj, nullptr);
  EXPECT_EQ(server_obj->get_num("steps_in_window"), 20.0);
  server.stop(serve::StopMode::kDrain);
}

TEST(LiveTelemetry, TwoTenantsWithDeadlineMissBreachWithinOneSnapshot) {
  serve::ServerConfig cfg;
  cfg.journal_path = tmp_path("telemetry_live.journal");
  cfg.work_dir = fresh_dir("telemetry_live");
  cfg.workers = 2;
  cfg.slice_steps = 10;
  cfg.telemetry.interval_ms = 20;
  cfg.telemetry.window_ms = 60000;
  serve::JobServer server(cfg);
  server.start();

  serve::SubmitRequest ok;
  ok.tenant = "acme";
  ok.name = "steady";
  ok.script = melt_script(60);
  EXPECT_TRUE(server.submit(ok).accepted);

  serve::SubmitRequest late;
  late.tenant = "beta";
  late.name = "late";
  late.script = melt_script(200);
  late.deadline_ms = 1;  // deliberately impossible
  late.max_attempts = 1;
  EXPECT_TRUE(server.submit(late).accepted);

  ASSERT_TRUE(server.wait_all_terminal(60000));

  // A single snapshot after the drain must already show the breach: the
  // stats verb ticks before rendering (acceptance criterion — the flag
  // flips within one sampling window of the miss).
  const util::JsonValue snap =
      util::parse_json(server.telemetry_snapshot_json());
  const util::JsonValue* tenants = snap.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->items.size(), 2u);
  bool saw_acme = false, saw_beta = false;
  for (const util::JsonValue& t : tenants->items) {
    if (t.get_str("tenant") == "acme") {
      saw_acme = true;
      EXPECT_FALSE(t.get_bool("breached"));
    } else if (t.get_str("tenant") == "beta") {
      saw_beta = true;
      EXPECT_TRUE(t.get_bool("breached"));
      EXPECT_TRUE(t.get_bool("breach_deadline"));
      EXPECT_GE(t.get_int("deadline_misses"), 1);
    }
  }
  EXPECT_TRUE(saw_acme);
  EXPECT_TRUE(saw_beta);

  // The completed work shows up as a nonzero step series and as live
  // step progress on the jobs table.
  const util::JsonValue* server_obj = snap.find("server");
  ASSERT_NE(server_obj, nullptr);
  EXPECT_GT(server_obj->get_num("steps_in_window"), 0.0);
  EXPECT_GT(server_obj->find("step_series")->items.size(), 0u);
  const util::JsonValue* jobs = snap.find("jobs");
  ASSERT_NE(jobs, nullptr);
  bool steady_done = false;
  for (const util::JsonValue& j : jobs->items) {
    if (j.get_str("name") == "steady") {
      steady_done = true;
      EXPECT_EQ(j.get_str("state"), "done");
      EXPECT_EQ(j.get_int("steps"), 60);
    }
  }
  EXPECT_TRUE(steady_done);

  // Breach transition surfaced as a structured event and in the stats
  // table counter.
  const util::JsonValue* events = snap.find("slo_events");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->items.size(), 1u);
  EXPECT_EQ(events->items[0].get_str("tenant"), "beta");
  EXPECT_TRUE(events->items[0].get_bool("entered"));
  EXPECT_GE(server.stats().slo_breaches, 1u);

  server.stop(serve::StopMode::kDrain);
}

TEST(LiveTelemetry, SamplerOffServesMinimalSnapshotAndStillRuns) {
  serve::ServerConfig cfg;
  cfg.journal_path = tmp_path("telemetry_off.journal");
  cfg.work_dir = fresh_dir("telemetry_off");
  cfg.workers = 1;
  cfg.telemetry.enabled = false;
  serve::JobServer server(cfg);
  server.start();
  EXPECT_EQ(server.telemetry(), nullptr);

  serve::SubmitRequest req;
  req.tenant = "acme";
  req.name = "notelemetry";
  req.script = melt_script(20);
  EXPECT_TRUE(server.submit(req).accepted);
  ASSERT_TRUE(server.wait_all_terminal(60000));

  const util::JsonValue snap =
      util::parse_json(server.telemetry_snapshot_json());
  EXPECT_EQ(snap.get_str("schema"), "lmp-telemetry-snapshot");
  EXPECT_FALSE(snap.get_bool("enabled", true));
  EXPECT_EQ(server.stats().completed, 1u);
  server.stop(serve::StopMode::kDrain);
}

}  // namespace
}  // namespace lmp
