// Telemetry-plane overhead bench: what does the background sampler cost
// the simulation it watches?
//
// Runs the same LJ melt job through a JobServer twice — telemetry
// disabled, then enabled at an aggressively short cadence (10 ms, ten
// times the default) — and compares end-to-end job wall time. The
// sampler only ever delta-reads lock-free counters and takes one brief
// server-lock probe per tick, so the gated ratio should sit at ~1.0;
// the wide tolerance in ci.sh absorbs shared-host scheduling noise, and
// the gate exists to catch a future change that drags sampling onto the
// step path.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "serve/job_server.h"

using namespace lmp;

namespace {

std::string melt_script(int steps) {
  return "units lj\n"
         "lattice fcc 0.8442\n"
         "region box block 0 6 0 6 0 6\n"
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
         "thermo 20\n"
         "comm_variant ref\n"
         "run " + std::to_string(steps) + "\n";
}

/// One full job (submit -> terminal) on a fresh server; returns seconds.
double run_job_s(bool telemetry_on, int steps, int iteration) {
  serve::ServerConfig cfg;
  cfg.work_dir = ".";
  char journal[64];
  std::snprintf(journal, sizeof journal, "bench_telemetry_%s%d.journal",
                telemetry_on ? "on" : "off", iteration);
  cfg.journal_path = journal;
  std::remove(cfg.journal_path.c_str());
  cfg.workers = 1;
  cfg.slice_steps = 20;
  cfg.write_reports = false;
  cfg.telemetry.enabled = telemetry_on;
  cfg.telemetry.interval_ms = 10;

  serve::JobServer server(cfg);
  server.start();
  serve::SubmitRequest req;
  req.tenant = "bench";
  req.name = "melt";
  req.script = melt_script(steps);

  const auto t0 = std::chrono::steady_clock::now();
  if (!server.submit(req).accepted || !server.wait_all_terminal(600000)) {
    std::fprintf(stderr, "error: bench job did not finish\n");
    std::exit(1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  server.stop(serve::StopMode::kDrain);
  std::remove(cfg.journal_path.c_str());
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  bench::banner(
      "telemetry — sampler overhead on a served job",
      "the live telemetry plane samples off the hot path: counters are "
      "lock-free relaxed stores, the sampler delta-reads them on its own "
      "thread, so a watched job runs at the speed of an unwatched one");

  const bool quick = [] {
    const char* q = std::getenv("LMP_BENCH_QUICK");
    return q != nullptr && q[0] != '\0' && q[0] != '0';
  }();
  const int steps = quick ? 100 : 300;
  const int repeats = quick ? 3 : 5;

  // Warm-up (thread pools, allocator, page cache), then best-of-N per
  // mode, interleaved so slow host phases hit both modes alike.
  (void)run_job_s(false, steps, -1);
  double off_s = 0.0;
  double on_s = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const double off = run_job_s(false, steps, i);
    if (i == 0 || off < off_s) off_s = off;
    const double on = run_job_s(true, steps, i);
    if (i == 0 || on < on_s) on_s = on;
  }

  const double off_sps = steps / off_s;
  const double on_sps = steps / on_s;
  const double ratio = off_s > 0.0 ? on_s / off_s : 0.0;

  bench::TablePrinter t({"telemetry", "job wall s", "steps/s"});
  t.add_row({"off", bench::TablePrinter::fmt(off_s, 3),
             bench::TablePrinter::fmt(off_sps, 1)});
  t.add_row({"on (10 ms cadence)", bench::TablePrinter::fmt(on_s, 3),
             bench::TablePrinter::fmt(on_sps, 1)});
  t.print();
  std::printf("\nsampler-on / sampler-off wall ratio: %.3f (1.0 = free)\n",
              ratio);

  obs::BenchRecord rec;
  rec.name = "telemetry";
  rec.labels = {{"workload", "lj-melt 6^3 cells, 1 worker, ref comm"},
                {"steps", std::to_string(steps)},
                {"sampler_interval_ms", "10"},
                {"off_wall_s", bench::TablePrinter::fmt(off_s, 3)},
                {"on_wall_s", bench::TablePrinter::fmt(on_s, 3)}};
  // Two-sided gate on the ratio only: raw wall times are shared-host
  // noise, the ratio divides that out.
  rec.metrics = {{"telemetry_on_off_ratio", ratio}};
  bench::emit_record(rec);
  return 0;
}
