#pragma once

// Shared declarations of the repository benchmark (lmp_bench): the
// workload catalog, the result being assembled, the span ledger of the
// traced run, and the layer probes. See README.md in this directory.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/input_script.h"
#include "sim/simulation.h"

namespace lmp::bench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> v);
/// Percentile with linear interpolation between order statistics,
/// p in [0, 100]; 0 for no samples.
double quantile(std::vector<double> v, double p);
/// Opens the window peak_heap_mb() covers: resets the program's own
/// allocation tracker (needs LMP_ALLOC_TRACE), so heap the benchmark held
/// before (its reference runs) cannot set the mark, and returns the live
/// heap at that moment. Call with no other thread running.
std::int64_t start_heap_window();
/// High-water mark of the process's live heap since start_heap_window,
/// in MB: the live heap then plus the tracker's high-water above it.
double peak_heap_mb(std::int64_t window_start);
/// Peak resident set size of this process, in MB (getrusage).
double peak_rss_mb();
/// CPUs this process may run on (what `nproc` prints).
int host_cpus();

// --- workloads ----------------------------------------------------------

/// One named workload. Its inputs are an input script generated from the
/// benchmark seed; the program under test only ever sees that script.
struct Workload {
  const char* name;
  const char* summary;
  int busy_threads;  ///< threads that spin or compute concurrently
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Distinct job scripts (velocity seeds) serve-ckpt cycles through.
inline constexpr int kServeSlots = 4;

/// Velocity seed of input `slot` for benchmark seed `seed` (1..999999,
/// like a LAMMPS `velocity create` seed).
std::uint64_t velocity_seed(std::uint64_t seed, int slot);

/// The MD workloads' input script (lj-strong, eam-overlap), or one job
/// script of serve-ckpt (`slot` picks the job's velocity seed).
/// `steps` overrides the script's `run` length when > 0.
std::string workload_script(const std::string& workload, std::uint64_t seed,
                            int slot = 0, int steps = 0);

// --- correctness --------------------------------------------------------

/// Relative total-energy drift bound every run must stay within.
inline constexpr double kMaxEnergyDrift = 1e-2;

/// Largest |E(t) - E(0)| / |E(0)| over a thermo series.
double energy_drift(const std::vector<sim::ThermoSample>& thermo);
/// True when both final states match bit for bit (tags, positions,
/// velocities). `why` receives the first difference.
bool same_atoms(const std::vector<sim::AtomState>& a,
                const std::vector<sim::AtomState>& b, std::string* why);
/// Self-test of the checks: flips the lowest bit of one coordinate, so a
/// reference treated this way must fail every comparison against it.
void perturb(std::vector<sim::AtomState>& atoms);
/// The job server's per-atom dump text for a final state.
std::string atom_dump_text(const std::vector<sim::AtomState>& atoms);
/// The job server's thermo chunk text for a thermo series.
std::string thermo_text(const std::vector<sim::ThermoSample>& thermo);

// --- result -------------------------------------------------------------

/// Every metric name the benchmark can report, in catalog order, with
/// whether it is a per-layer metric (true) or an end-to-end one.
std::vector<std::pair<std::string, bool>> metric_names();
std::string metric_unit(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string source;  ///< per-layer metrics: "run" or "probe"
};

/// Everything one invocation reports.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few reasons, for the log
  std::vector<Metric> metrics;

  /// Count one operation; `error` empty means it passed.
  void operation(const std::string& error);
  /// Record a catalog metric (its unit comes from the catalog).
  void add(const std::string& name, double value,
           const std::string& source = "run");
  bool has(const std::string& name) const;
  bool correct() const { return failed == 0 && attempted > 0; }
};

/// Options of one invocation.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;        ///< traced-run artifacts go here
  std::string scratch_dir;    ///< serve journals, checkpoints
  bool perturb_reference = false;  ///< self-test: corrupt the reference
};

void run_md_workload(const RunConfig& cfg, Outcome& out);
void run_serve_workload(const RunConfig& cfg, Outcome& out);
/// Serve-layer probe: three jobs of `script` through a fresh one-lane
/// server, one client, checked against the uninterrupted run.
void probe_server(const std::string& script, const RunConfig& cfg,
                  Outcome& out);

// --- traced-run ledger --------------------------------------------------

/// Spans the benchmark records around its calls into each layer. Kept in
/// memory while the run lasts, written out once at the end. Spans of one
/// operation share an id; nesting on a thread gives the parent.
class Ledger {
 public:
  struct Span {
    std::uint64_t op = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
    int thread = 0;
    const char* layer = "";
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  static Ledger& instance();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::uint64_t new_op();
  int open(std::uint64_t op, const char* layer, const char* name);
  void close(int index);
  std::vector<Span> spans() const;

 private:
  bool enabled_ = false;
};

/// RAII span in the ledger (no-op while the ledger is off).
class LayerSpan {
 public:
  LayerSpan(std::uint64_t op, const char* layer, const char* name);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  int index_ = -1;
};

/// Writes the traced run's artifacts into `dir`: spans.json (the raw
/// ledger), trace.json (`program_trace`, the program's Perfetto export,
/// with the ledger spans merged in as a "bench ledger" process), and
/// layers.txt (per-layer self time, plus every per-layer metric next to
/// the end-to-end metric and workload it should move). Returns the
/// layers.txt text.
std::string write_trace_artifacts(const std::string& dir,
                                  const std::string& workload,
                                  const Outcome& out,
                                  std::string program_trace);

// --- layer probes -------------------------------------------------------

/// Direct calls into each layer on the decomposition and atoms `opts`
/// describes (no MD loop): comm forward/reverse/borders/exchange and the
/// minimpi allreduce per call on every rank; neighbor build, force
/// kernel and integrity scan on rank 0; a whole-system checkpoint write
/// into `dir`; one 528-byte fabric put; an empty pool dispatch; and a
/// no-op task graph shaped like this workload's step DAG.
void probe_decomposition(const sim::SimOptions& opts, const std::string& dir,
                         Outcome& out);
/// Step-normalised ledger of one traced run_simulation result: stage
/// timers, comm counters, fabric packets, steady-state allocations, and
/// the wait-derived metrics (pack, notice wait, wire transit, step
/// imbalance) of the tracer events, each only when the run produced it.
void add_run_ledger(const sim::JobResult& r, int nsteps, Outcome& out);
/// Fills in the wait-derived metrics a workload's own run did not produce
/// (the 3-stage brick path has no flow-matched wire transit) from a
/// traced `nsteps` run of
/// the same atoms and decomposition on 6tni_p2p with Newton on, reported
/// as probes. Throws when that probe traces no waits either.
void complete_wait_ledger(const sim::SimOptions& opts, int nsteps,
                          Outcome& out);

}  // namespace lmp::bench
