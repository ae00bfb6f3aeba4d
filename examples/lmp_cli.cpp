// A miniature `lmp` executable: runs a LAMMPS-style input script — the
// same interface the paper's artifact exposes (`lmp_threadpool` fed with
// in.threadpool.lj). Ships with examples/in.melt.lj and
// examples/in.eam.cu.
//
//   ./lmp_cli <input-script> [comm_variant_override] [flags]
//
// Flags (after the positional args, any order):
//   --executor <name>         step runtime: barrier (default) or async
//                             (task-DAG overlap of ghost exchange and
//                             interior force work; bitwise-identical)
//   --restart <file>          resume from a checkpoint file
//   --checkpoint-path <pfx>   write checkpoints as <pfx>.<step>
//   --checkpoint-keep <K>     keep only the newest K on-disk checkpoints
//   --integrity <N>           run silent-corruption guards every N steps
//   --flip <spec>             inject a seeded memory bit flip (repeatable);
//                             spec = step:rank:target:word:bit[:persistent]
//                             with target pos|vel|force|ghost, rank -1 =
//                             every rank
//   --dump-final <file>       write final per-atom state (tag x y z vx vy vz)
//   --trace <file>            write a Chrome/Perfetto trace JSON
//                             (load in chrome://tracing or ui.perfetto.dev)
//   --trace-alloc             also record one instant per heap allocation
//                             in the trace (high volume: floods the ring
//                             on long runs, so off by default)
//   --report <file>           write the machine-readable run report JSON
//   --metrics                 dump the full metrics registry + fabric
//                             link-utilization tables at end of run
//   --alloc-guard             steady-state zero-alloc guard: any step
//                             past the warmup window (default run/2)
//                             that heap-allocates fails the run (exit 3)
//                             with a per-scope attribution table
//   --alloc-warmup <N>        override the guard's warmup step count

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "comm/comm_factory.h"
#include "obs/alloc_tracker.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "sim/input_script.h"
#include "tofu/link_telemetry.h"
#include "tofu/topology.h"
#include "util/table_printer.h"

using namespace lmp;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <input-script> [comm-variant] "
               "[--executor barrier|async] [--restart <file>] "
               "[--checkpoint-path <prefix>] [--checkpoint-keep <K>] "
               "[--integrity <N>] "
               "[--flip step:rank:target:word:bit[:persistent]] "
               "[--dump-final <file>] "
               "[--trace <file>] [--trace-alloc] [--report <file>] "
               "[--metrics] [--alloc-guard] [--alloc-warmup <N>]\n",
               prog);
  std::fprintf(stderr, "  comm-variant: %s\n",
               comm::CommFactory::instance().catalog().c_str());
  return 1;
}

/// Text dump of the final sorted per-atom state at full double precision
/// (%.17g round-trips exactly) — what the kill-and-restart smoke diffs.
bool dump_final(const std::string& path, const sim::JobResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  for (const auto& a : r.atoms) {
    std::fprintf(f, "%lld %.17g %.17g %.17g %.17g %.17g %.17g\n",
                 static_cast<long long>(a.tag), a.pos.x, a.pos.y, a.pos.z,
                 a.vel.x, a.vel.y, a.vel.z);
  }
  std::fclose(f);
  return true;
}

/// Parse a --flip spec (step:rank:target:word:bit[:persistent]) into a
/// deterministic memory fault. Returns false on any malformed field.
bool parse_flip(const std::string& spec, tofu::MemFault* out) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(
        start, colon == std::string::npos ? std::string::npos : colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 5 || parts.size() > 6) return false;
  try {
    std::size_t used = 0;
    out->step = std::stoi(parts[0], &used);
    if (used != parts[0].size() || out->step < 0) return false;
    out->rank = std::stoi(parts[1], &used);
    if (used != parts[1].size() || out->rank < -1) return false;
    if (parts[2] == "pos") {
      out->target = static_cast<int>(tofu::MemTarget::kPos);
    } else if (parts[2] == "vel") {
      out->target = static_cast<int>(tofu::MemTarget::kVel);
    } else if (parts[2] == "force") {
      out->target = static_cast<int>(tofu::MemTarget::kForce);
    } else if (parts[2] == "ghost") {
      out->target = static_cast<int>(tofu::MemTarget::kGhostPos);
    } else {
      return false;
    }
    out->word = std::stoull(parts[3], &used);
    if (used != parts[3].size()) return false;
    out->bit = std::stoi(parts[4], &used);
    if (used != parts[4].size() || out->bit < 0 || out->bit > 63) return false;
  } catch (const std::exception&) {
    return false;
  }
  if (parts.size() == 6) {
    if (parts[5] != "persistent") return false;
    out->persistent = true;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  sim::ParsedScript script;
  try {
    script = sim::parse_input_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::string dump_path;
  bool trace_alloc = false;
  for (int i = 2; i < argc; ++i) {
    const auto flag_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--executor") == 0) {
      const char* v = flag_value("--executor");
      if (!v) return 1;
      if (std::strcmp(v, "barrier") != 0 && std::strcmp(v, "async") != 0) {
        std::fprintf(stderr, "error: --executor wants barrier|async\n");
        return 1;
      }
      script.options.executor = v;
    } else if (std::strcmp(argv[i], "--restart") == 0) {
      const char* v = flag_value("--restart");
      if (!v) return 1;
      script.options.restart_file = v;
    } else if (std::strcmp(argv[i], "--checkpoint-path") == 0) {
      const char* v = flag_value("--checkpoint-path");
      if (!v) return 1;
      script.options.checkpoint_path = v;
    } else if (std::strcmp(argv[i], "--checkpoint-keep") == 0) {
      const char* v = flag_value("--checkpoint-keep");
      if (!v) return 1;
      script.options.checkpoint_keep = std::atoi(v);
      if (script.options.checkpoint_keep < 1) {
        std::fprintf(stderr, "error: --checkpoint-keep wants K >= 1\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--integrity") == 0) {
      const char* v = flag_value("--integrity");
      if (!v) return 1;
      script.options.integrity.cadence = std::atoi(v);
      if (script.options.integrity.cadence < 1) {
        std::fprintf(stderr, "error: --integrity wants a cadence >= 1\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--flip") == 0) {
      const char* v = flag_value("--flip");
      if (!v) return 1;
      tofu::MemFault flip;
      if (!parse_flip(v, &flip)) {
        std::fprintf(stderr,
                     "error: --flip wants step:rank:target:word:bit"
                     "[:persistent] with target pos|vel|force|ghost\n");
        return 1;
      }
      script.options.faults.mem_faults.push_back(flip);
    } else if (std::strcmp(argv[i], "--dump-final") == 0) {
      const char* v = flag_value("--dump-final");
      if (!v) return 1;
      dump_path = v;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      const char* v = flag_value("--trace");
      if (!v) return 1;
      script.trace_path = v;
    } else if (std::strcmp(argv[i], "--trace-alloc") == 0) {
      trace_alloc = true;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      const char* v = flag_value("--report");
      if (!v) return 1;
      script.report_path = v;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      script.dump_metrics = true;
    } else if (std::strcmp(argv[i], "--alloc-guard") == 0) {
      script.options.alloc_guard = true;
    } else if (std::strcmp(argv[i], "--alloc-warmup") == 0) {
      const char* v = flag_value("--alloc-warmup");
      if (!v) return 1;
      script.options.alloc_guard = true;
      script.options.alloc_guard_warmup = std::atoi(v);
      if (script.options.alloc_guard_warmup < 0) {
        std::fprintf(stderr, "error: --alloc-warmup wants N >= 0\n");
        return 1;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return usage(argv[0]);
    } else {
      // Variant override, like swapping the artifact's project directory.
      if (!comm::CommFactory::instance().known(argv[i])) {
        std::fprintf(stderr, "unknown variant override '%s' (registered: %s)\n",
                     argv[i], comm::CommFactory::instance().catalog().c_str());
        return 1;
      }
      script.options.comm = argv[i];
    }
  }

  const sim::SimOptions& o = script.options;
  std::printf("LAMMPS-mini (%s)\n", o.config.name.c_str());
  std::printf("  %d x %d x %d fcc cells = %d atoms, %d ranks (%dx%dx%d), "
              "comm=%s\n",
              o.cells.x, o.cells.y, o.cells.z,
              4 * o.cells.x * o.cells.y * o.cells.z,
              o.rank_grid.x * o.rank_grid.y * o.rank_grid.z, o.rank_grid.x,
              o.rank_grid.y, o.rank_grid.z, o.comm.c_str());
  if (o.executor != "barrier") {
    std::printf("  executor %s (%d workers/rank)\n", o.executor.c_str(),
                o.executor_threads);
  }
  std::printf("  cutoff %.3f skin %.2f dt %.4g newton %s neigh every %d "
              "check %s\n",
              o.config.cutoff, o.config.skin, o.config.dt,
              o.config.newton ? "on" : "off", o.config.neigh.every,
              o.config.neigh.check ? "yes" : "no");
  if (!o.restart_file.empty()) {
    std::printf("  restarting from %s\n", o.restart_file.c_str());
  }
  if (o.integrity.enabled()) {
    std::printf("  integrity guards every %d steps (energy tol %.3g)\n",
                o.integrity.cadence, o.integrity.energy_tol);
  }
  if (o.faults.memory_faults()) {
    std::printf("  memory fault plan: %zu deterministic flip(s), rate %.3g\n",
                o.faults.mem_faults.size(), o.faults.mem_flip_rate);
  }
  if (o.alloc_guard) {
    if (o.alloc_guard_warmup >= 0) {
      std::printf("  alloc guard armed (warmup %d steps)\n",
                  o.alloc_guard_warmup);
    } else {
      std::printf("  alloc guard armed (warmup %d steps)\n",
                  script.run_steps / 2);
    }
  }
  std::printf("\n");

  if (!script.trace_path.empty()) {
    if (!obs::trace_compiled_in()) {
      std::fprintf(stderr,
                   "error: --trace requires a build with LMP_TRACE=ON\n");
      return 1;
    }
    // Alloc instants are opt-in: one event per heap allocation would
    // flood the bounded rings and evict the flow/span events the
    // critical-path and flow-matching consumers need.
    obs::set_trace_categories(
        trace_alloc ? obs::kAllTraceCats : obs::kDefaultTraceCats);
  }
  if (!script.trace_path.empty() || !script.report_path.empty() ||
      script.dump_metrics) {
    obs::set_metrics_enabled(true);
  }

  sim::JobResult r;
  try {
    r = sim::run_simulation(o, script.run_steps);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (r.restart_step > 0) {
    std::printf("Resumed from step %d\n", r.restart_step);
  }
  if (r.final_comm != o.comm) {
    std::printf("Finished on comm=%s after %zu failover(s)\n",
                r.final_comm.c_str(), r.health.escalations.size());
  }

  util::TablePrinter t({"Step", "Temp", "Press", "TotEng"});
  for (const auto& s : r.thermo) {
    t.add_row({std::to_string(s.step),
               util::TablePrinter::fmt(s.state.temperature, 5),
               util::TablePrinter::fmt(s.state.pressure, 5),
               util::TablePrinter::fmt(s.state.total(), 5)});
  }
  t.print();

  if (!r.health.clean() || r.health.checkpoints_written > 0) {
    std::printf("\n%s", sim::format_health_table(r.health).c_str());
  }
  const std::string latency = obs::format_latency_table();
  if (!latency.empty()) std::printf("\n%s", latency.c_str());

  // Post-run analyses. The critical-path breakdown needs the tracer's
  // event snapshot, so it lives here (not in build_run_report).
  const int nranks = o.rank_grid.x * o.rank_grid.y * o.rank_grid.z;
  obs::CriticalPathReport cp;
  if (!script.trace_path.empty()) {
    cp = obs::analyze_critical_path(obs::Tracer::instance().snapshot_events());
    const std::string cpt = obs::format_critical_path_table(cp);
    if (!cpt.empty()) std::printf("\n%s", cpt.c_str());
  }
  if (script.dump_metrics) {
    const std::string fabric = tofu::format_fabric_table(
        tofu::Topology::for_nodes(std::max(1, nranks)), r.fabric);
    if (!fabric.empty()) std::printf("\n%s", fabric.c_str());
    const std::string metrics = obs::format_metrics_table();
    if (!metrics.empty()) std::printf("\n%s", metrics.c_str());
  }

  const util::StageTimer stages = r.total_stages();
  const double total = stages.total();  // one denominator for all rows
  std::printf("\nMPI task timing breakdown:\n");
  for (const auto stage : util::all_stages()) {
    std::printf("  %-7s %8.4fs  %5.1f%%\n",
                std::string(util::stage_name(stage)).c_str(),
                stages.get(stage), stages.percent(stage, total));
  }
  if (r.health.checkpoints_written > 0) {
    std::printf("  Ckpt I/O %7.4fs  (%llu checkpoints)\n",
                r.health.checkpoint_io_seconds,
                static_cast<unsigned long long>(r.health.checkpoints_written));
  }

  if (!script.report_path.empty()) {
    obs::RunReport rep = sim::build_run_report(o, script.run_steps, r);
    if (!cp.empty()) {
      for (const obs::CriticalPathRow& row : cp.rows) {
        rep.critical_path.push_back({row.name, row.seconds, row.percent});
      }
      rep.critical_path_total_seconds = cp.step_seconds_total;
    }
    if (!obs::write_text_file(script.report_path, rep.to_json())) {
      std::fprintf(stderr, "error: cannot write report %s\n",
                   script.report_path.c_str());
      return 1;
    }
    std::printf("\nRun report written to %s\n", script.report_path.c_str());
  }
  if (!script.trace_path.empty()) {
    if (!obs::Tracer::instance().export_chrome_json_file(script.trace_path)) {
      std::fprintf(stderr, "error: cannot write trace %s\n",
                   script.trace_path.c_str());
      return 1;
    }
    std::printf("Trace written to %s (%llu events, %llu overwritten)\n",
                script.trace_path.c_str(),
                static_cast<unsigned long long>(
                    obs::Tracer::instance().events_recorded()),
                static_cast<unsigned long long>(
                    obs::Tracer::instance().events_dropped()));
  }

  if (!dump_path.empty() && !dump_final(dump_path, r)) return 1;

  // The guard verdict goes last so a failing run still prints its full
  // tables, trace, and dump — the attribution table below is the thing
  // the zero-alloc arc debugs from. Exit 3 distinguishes "the physics
  // ran fine but the step loop allocated" from hard errors (exit 1).
  if (o.alloc_guard) {
    const std::string guard = obs::format_alloc_guard_table(r.alloc_guard);
    if (!guard.empty()) std::printf("\n%s", guard.c_str());
    if (!r.alloc_guard.passed()) return 3;
  }
  return 0;
}
