// lj-strong and eam-overlap: repeated run_simulation calls of the
// workload's generated script, each checked against a reference run.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "obs/tracer.h"

namespace lmp::bench {

namespace {

/// Final total energy agreement between the workload and the brick
/// (`ref`) ghost pattern: their Newton-on force sums associate
/// differently, so they agree to rounding growth, not bit for bit.
constexpr double kCrossPatternTol = 1e-6;

double final_energy(const sim::JobResult& r) {
  return r.thermo.empty() ? 0.0 : r.thermo.back().state.total();
}

struct References {
  sim::JobResult bitwise;  ///< same ghost pattern, mpi_p2p + barrier
  sim::JobResult brick;    ///< `ref` (3-stage brick) + barrier
};

References make_references(const sim::SimOptions& opts, int nsteps,
                           bool perturb) {
  References refs;
  sim::SimOptions o = opts;
  o.executor = "barrier";
  o.comm = "mpi_p2p";
  refs.bitwise = sim::run_simulation(o, nsteps);
  o.comm = "ref";
  refs.brick = sim::run_simulation(o, nsteps);
  if (perturb) bench::perturb(refs.bitwise.atoms);
  return refs;
}

/// Empty when `r` is a correct run of `opts`, else the first problem.
std::string check_run(const sim::SimOptions& opts, const sim::JobResult& r,
                      const References& refs) {
  if (r.final_comm != opts.comm || !r.health.escalations.empty()) {
    return "run failed over from " + opts.comm + " to " + r.final_comm;
  }
  std::string why;
  if (!same_atoms(r.atoms, refs.bitwise.atoms, &why)) return why;
  const double drift = energy_drift(r.thermo);
  if (!(drift <= kMaxEnergyDrift)) {
    return "energy drift " + std::to_string(drift) + " exceeds " +
           std::to_string(kMaxEnergyDrift);
  }
  const double e = final_energy(r), eb = final_energy(refs.brick);
  if (!(std::abs(e - eb) <= kCrossPatternTol * std::abs(eb))) {
    return "final energy " + std::to_string(e) + " vs brick reference " +
           std::to_string(eb);
  }
  return "";
}

/// One operation: a full run_simulation of the workload, checked.
/// Returns its wall time; `result` receives the run when given.
double timed_run(const sim::SimOptions& opts, int nsteps,
                 const References& refs, Outcome& out,
                 sim::JobResult* result = nullptr) {
  LayerSpan span(Ledger::instance().new_op(), "sim", "run_simulation");
  const auto t0 = Clock::now();
  try {
    sim::JobResult r = sim::run_simulation(opts, nsteps);
    const double wall = seconds_since(t0);
    out.operation(check_run(opts, r, refs));
    if (result != nullptr) *result = std::move(r);
    return wall;
  } catch (const std::exception& e) {
    out.operation(std::string("run threw: ") + e.what());
    return seconds_since(t0);
  }
}

}  // namespace

void run_md_workload(const RunConfig& cfg, Outcome& out) {
  const std::string script = workload_script(cfg.workload, cfg.seed);
  const sim::ParsedScript parsed = sim::parse_input_script(script);
  const sim::SimOptions& opts = parsed.options;
  const int nsteps = parsed.run_steps;
  const References refs = make_references(opts, nsteps, cfg.perturb_reference);
  const std::int64_t heap0 = start_heap_window();  // references held

  // Set-up: a zero-step run is run_simulation entry to the first step
  // (lattice, decomposition, comm setup and registration, first borders,
  // neighbor build and force) plus the thread join. Three samples before
  // every timed run, so the median covers the same stretch of time as the
  // runs and rests on enough samples when the runs are long (eam-overlap).
  std::vector<double> setup;
  const auto sample_setup = [&] {
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      sim::run_simulation(opts, 0);
      setup.push_back(seconds_since(t0));
    }
  };

  // Runs until `seconds` have passed, at least `min_runs` of them.
  const auto run_phase = [&](double seconds, int min_runs,
                             const sim::SimOptions& o, sim::JobResult* last) {
    std::vector<double> walls;
    const auto start = Clock::now();
    while (static_cast<int>(walls.size()) < min_runs ||
           seconds_since(start) < seconds) {
      sample_setup();
      if (obs::trace_enabled(obs::TraceCat::kSim)) {
        obs::Tracer::instance().reset();  // keep one run's events
      }
      walls.push_back(timed_run(o, nsteps, refs, out, last));
    }
    return walls;
  };
  // Per-step time of each run, its median set-up excluded.
  const auto step_us = [&](const std::vector<double>& walls) {
    std::vector<double> v;
    for (const double w : walls) v.push_back((w - median(setup)) * 1e6 / nsteps);
    return v;
  };

  if (!cfg.trace) {
    const std::vector<double> walls = run_phase(cfg.seconds, 3, opts, nullptr);
    const std::vector<double> steps = step_us(walls);
    double busy = 0.0;
    for (const double w : walls) busy += w;
    out.add("step_us", median(steps));
    out.add("setup_s", median(setup));
    out.add("job_s_p50", median(walls));
    out.add("jobs_per_s", static_cast<double>(walls.size()) / busy);
    out.add("peak_heap_mb", peak_heap_mb(heap0));
    std::printf("%s: %zu runs of %d steps, step_us p25/p50/p75 %.2f/%.2f/%.2f, "
                "%zu set-ups, setup_s p25/p50/p75 %.6f/%.6f/%.6f\n",
                cfg.workload.c_str(), walls.size(), nsteps,
                quantile(steps, 25), quantile(steps, 50), quantile(steps, 75),
                setup.size(), quantile(setup, 25), quantile(setup, 50),
                quantile(setup, 75));
    return;
  }

  Ledger::instance().enable(true);
  const double untraced =
      median(step_us(run_phase(cfg.seconds / 4, 3, opts, nullptr)));

  sim::SimOptions traced_opts = opts;
  traced_opts.alloc_guard = true;
  sim::JobResult last;
  obs::Tracer::instance().set_buffer_capacity(1 << 16);
  obs::set_metrics_enabled(true);
  obs::set_trace_categories(obs::kDefaultTraceCats);
  const double traced =
      median(step_us(run_phase(cfg.seconds / 4, 3, traced_opts, &last)));
  add_run_ledger(last, nsteps, out);
  obs::set_trace_categories(0);
  obs::set_metrics_enabled(false);
  const std::string program_trace = obs::Tracer::instance().export_chrome_json();
  complete_wait_ledger(opts, nsteps, out);
  out.add("obs.trace_overhead_ratio", traced / untraced);

  // Probes run untraced so each per-call time is the plain cost.
  probe_decomposition(opts, cfg.out_dir, out);
  // The serve layer on this workload's own script, shortened to a few
  // slices.
  probe_server(workload_script(cfg.workload, cfg.seed, 0, nsteps / 5), cfg, out);
  write_trace_artifacts(cfg.out_dir, cfg.workload, out, program_trace);
}

}  // namespace lmp::bench
