// lmp_bench: the repository benchmark's measuring program. run.py builds
// and drives it; see README.md in this directory.
//
//   lmp_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--scratch <dir>] [--perturb-reference]
//   lmp_bench --list-metrics            (name, kind and unit per line)
//   lmp_bench --print-inputs <workload> <seed>
//
// The last line of a measuring run is one JSON object: correct,
// attempted, failed, and metrics (end-to-end with --trace 0, per-layer
// with --trace 1). A workload whose busy threads exceed the CPUs this
// process may use is refused (exit 2) instead of measured.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "obs/alloc_tracker.h"
#include "obs/tracer.h"

namespace {

using namespace lmp;
using namespace lmp::bench;

#ifndef LMP_BENCH_BUILD_TYPE
#define LMP_BENCH_BUILD_TYPE "unknown"
#endif

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--scratch <dir>] "
               "[--perturb-reference]\n"
               "       %s --list-metrics\n"
               "       %s --print-inputs <workload> <seed>\n",
               argv0, argv0, argv0);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--list-metrics") {
      for (const auto& [name, per_layer] : metric_names()) {
        std::printf("%s %s %s\n", name.c_str(),
                    per_layer ? "per_layer" : "end_to_end",
                    metric_unit(name).c_str());
      }
      return 0;
    } else if (a == "--print-inputs" && i + 2 < argc) {
      const std::string wl = argv[i + 1];
      const std::uint64_t seed = std::strtoull(argv[i + 2], nullptr, 10);
      if (find_workload(wl) == nullptr) return usage(argv[0]);
      const int slots = wl == "serve-ckpt" ? kServeSlots : 1;
      for (int k = 0; k < slots; ++k) {
        std::printf("%s", workload_script(wl, seed, k).c_str());
      }
      return 0;
    } else if (a == "--workload" && (v = value())) {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed" && (v = value())) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace" && (v = value())) {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out" && (v = value())) {
      cfg.out_dir = v;
    } else if (a == "--scratch" && (v = value())) {
      cfg.scratch_dir = v;
    } else if (a == "--perturb-reference") {
      cfg.perturb_reference = true;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* wl = have_workload ? find_workload(cfg.workload) : nullptr;
  if (wl == nullptr || !(cfg.seconds > 0)) return usage(argv[0]);
  if (cfg.out_dir.empty()) cfg.out_dir = ".bench_build/out/" + cfg.workload;
  if (cfg.scratch_dir.empty()) cfg.scratch_dir = cfg.out_dir + "/scratch";

  // Host shape and build labels, carried by every result.
  const int cpus = host_cpus();
  std::printf(
      "labels {\"workload\":\"%s\",\"nproc\":%d,\"busy_threads\":%d,"
      "\"build_type\":\"%s\",\"lmp_trace\":%s,\"lmp_alloc_trace\":%s,"
      "\"seed\":%llu,\"seconds\":%s,\"trace\":%d}\n",
      wl->name, cpus, wl->busy_threads, LMP_BENCH_BUILD_TYPE,
      obs::trace_compiled_in() ? "true" : "false",
      obs::alloc_trace_compiled_in() ? "true" : "false",
      static_cast<unsigned long long>(cfg.seed), json_number(cfg.seconds).c_str(),
      cfg.trace ? 1 : 0);
  std::printf("workload %s: %s\n", wl->name, wl->summary);
  if (wl->busy_threads > cpus) {
    std::fprintf(stderr,
                 "refused: %s keeps %d threads busy but only %d CPUs are "
                 "available; its timings would measure the scheduler\n",
                 wl->name, wl->busy_threads, cpus);
    return 2;
  }
  if (cfg.trace && !obs::trace_compiled_in()) {
    std::fprintf(stderr, "refused: --trace 1 needs a build with LMP_TRACE=ON\n");
    return 2;
  }
  if (!obs::alloc_trace_compiled_in()) {
    std::fprintf(stderr,
                 "refused: peak_heap_mb and sim.allocs_per_step need a build "
                 "with LMP_ALLOC_TRACE=ON\n");
    return 2;
  }

  Outcome out;
  try {
    std::filesystem::create_directories(cfg.out_dir);
    std::filesystem::create_directories(cfg.scratch_dir);
    obs::set_trace_categories(0);
    obs::set_metrics_enabled(false);
    if (cfg.workload == "serve-ckpt") {
      run_serve_workload(cfg, out);
    } else {
      run_md_workload(cfg, out);
    }
    std::filesystem::remove_all(cfg.scratch_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    std::printf("%-28s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.source.c_str());
  }
  // Not a metric: glibc keeps a freed arena's pages, and contention decides
  // how many arenas exist, so peak RSS jumps run to run (EAM: 54 or 71 MB).
  std::printf("peak RSS %.1f MB\n", peak_rss_mb());
  std::printf("fail_ratio %.6g (%ld of %ld operations failed)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted
                                : 1.0,
              out.failed, out.attempted);
  for (const std::string& f : out.failures) std::printf("failure: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
