// Layer probes of the traced run: direct, per-call timings of the public
// entry points of comm, md, minimpi, sim (checkpoint/integrity), tofu and
// threadpool, plus the step-normalised ledger of one traced MD run. They
// time each layer from outside; nothing here instruments src/.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "comm/comm_factory.h"
#include "geom/lattice.h"
#include "md/eam.h"
#include "md/eam_table.h"
#include "md/force_split.h"
#include "md/lj.h"
#include "md/neighbor.h"
#include "md/velocity.h"
#include "minimpi/runtime.h"
#include "obs/critical_path.h"
#include "obs/tracer.h"
#include "sim/checkpoint.h"
#include "sim/integrity.h"
#include "threadpool/spin_pool.h"
#include "threadpool/task_graph.h"
#include "tofu/utofu.h"

namespace lmp::bench {

namespace {

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Mid-pair ghost communication that moves nothing: lets the EAM kernel
/// run on one rank so the probe times the kernel alone.
class NoGhostComm final : public md::GhostDataComm {
 public:
  void reverse_add(double*) override {}
  void forward(double*) override {}
};

std::unique_ptr<md::Potential> make_potential(const md::SimConfig& cfg) {
  if (cfg.potential == md::PotentialKind::kLennardJones) {
    return std::make_unique<md::LennardJones>(cfg.epsilon, cfg.sigma,
                                              cfg.cutoff);
  }
  // The same generated Cu-like table the simulation reads.
  return std::make_unique<md::Eam>(md::parse_funcfl(
      md::to_funcfl(md::make_cu_like_table(2000, 2000, cfg.cutoff))));
}

/// Median time per call of `batch` back-to-back calls, over `repeats`
/// batches (batching lifts sub-microsecond calls above clock noise).
template <class Fn>
double per_call_us(int repeats, int batch, Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    v.push_back(us_since(t0) / batch);
  }
  return median(v);
}

/// Shape of the workload's step DAG, read off the probe decomposition so
/// the no-op graph timed by pool.dag_run_us matches it.
struct DagShape {
  int waits = 0;   ///< forward receive channels of rank 0
  int groups = 1;  ///< force groups of rank 0
  int passes = 1;  ///< split passes of the potential
};

DagShape probe_layers(const sim::SimOptions& opts, const std::string& dir,
                      Outcome& out) {
  const md::SimConfig& cfg = opts.config;
  const geom::FccLattice lattice =
      cfg.units.style == md::UnitStyle::kLj
          ? geom::FccLattice::from_density(cfg.lattice_arg)
          : geom::FccLattice::from_constant(cfg.lattice_arg);
  const geom::Box global =
      lattice.box_for(opts.cells.x, opts.cells.y, opts.cells.z);
  const geom::Decomposition decomp(opts.rank_grid, global);
  const std::vector<util::Vec3> pos =
      lattice.generate(opts.cells.x, opts.cells.y, opts.cells.z);
  const std::vector<util::Vec3> vel = md::create_velocities(
      pos.size(), cfg.t_init, cfg.mass, cfg.units, opts.seed);
  const double density = static_cast<double>(pos.size()) / global.volume();
  const double rc = cfg.neighbor_cutoff();
  const int nranks = decomp.nranks();

  minimpi::World world(nranks);
  tofu::Network net(nranks);
  comm::AddressBook book(nranks);
  const comm::CommVariantInfo& variant =
      comm::CommFactory::instance().at(opts.comm);

  // Per-call samples from every rank; rank 0 alone runs the kernels.
  std::vector<std::vector<double>> fwd(nranks), rev(nranks), bord(nranks),
      exch(nranks), red(nranks);
  std::vector<double> neigh, force, scan;
  long pairs = 0;
  bool scan_tripped = false;
  DagShape shape;

  const std::uint64_t op = Ledger::instance().new_op();
  minimpi::run_ranks(nranks, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    const geom::Box sub = decomp.sub_box(rank);
    const util::Vec3 e = sub.extent();
    const double shell =
        (e.x + 2 * rc) * (e.y + 2 * rc) * (e.z + 2 * rc) - sub.volume();
    md::Atoms atoms;
    // Same capacity bound the simulation registers (paper Sec. 3.4).
    atoms.reserve_capacity(
        static_cast<int>((sub.volume() * 1.5 + shell * 2.0) * density + 256));
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if (decomp.owner_of(pos[i]) == rank) {
        atoms.add_local(pos[i], vel[i], static_cast<std::int64_t>(i));
      }
    }

    comm::CommBuildInputs in;
    in.ctx.decomp = &decomp;
    in.ctx.rank = rank;
    in.ctx.atoms = &atoms;
    in.ctx.sub = sub;
    in.ctx.global = global;
    in.ctx.ghost_cutoff = rc;
    in.ctx.newton = cfg.newton;
    in.ctx.density = density;
    in.world = &world;
    in.net = &net;
    in.book = &book;
    in.use_border_bins = opts.use_border_bins;
    in.balanced_assignment = opts.balanced_assignment;
    comm::CommInstance built = variant.build(in);
    comm::Comm& c = *built.comm;
    c.setup();
    world.barrier(rank);
    c.exchange();
    c.borders();

    // Every rank makes the same calls in the same order; the barrier
    // before each call lines the ranks up so one sample is one exchange.
    const auto timed = [&](std::vector<double>& sink, int calls,
                           const char* name, auto&& before, auto&& call) {
      for (int i = 0; i < calls; ++i) {
        before();
        world.barrier(rank);
        LayerSpan span(op, "comm", name);
        const auto t0 = Clock::now();
        call();
        sink.push_back(us_since(t0));
      }
    };
    const auto nothing = [] {};
    timed(fwd[r], 200, "forward_positions", nothing,
          [&] { c.forward_positions(); });
    atoms.zero_forces();
    timed(rev[r], 200, "reverse_forces", nothing, [&] { c.reverse_forces(); });
    timed(bord[r], 30, "borders", [&] { atoms.clear_ghosts(); },
          [&] { c.borders(); });
    timed(exch[r], 30, "exchange", [&] { atoms.clear_ghosts(); },
          [&] { c.exchange(); });
    c.borders();  // the kernels below need the ghosts back
    timed(red[r], 500, "allreduce_lor", nothing,
          [&] { world.allreduce_lor(rank, false); });

    if (rank == 0) {
      md::NeighborBuilder nb(rc);
      md::NeighborList list;
      for (int i = 0; i < 20; ++i) {
        LayerSpan span(op, "md", "neighbor_build");
        const auto t0 = Clock::now();
        list = cfg.newton ? nb.build_half(atoms, variant.half_rule)
                          : nb.build_full(atoms);
        neigh.push_back(us_since(t0));
      }
      pairs = list.total_pairs();
      const std::unique_ptr<md::Potential> pot = make_potential(cfg);
      NoGhostComm no_comm;
      for (int i = 0; i < 20; ++i) {
        atoms.zero_forces();
        LayerSpan span(op, "md", "potential_compute");
        const auto t0 = Clock::now();
        pot->compute(atoms, list, cfg.newton, &no_comm);
        force.push_back(us_since(t0));
      }
      for (int i = 0; i < 50; ++i) {
        LayerSpan span(op, "sim", "scan_atoms");
        const auto t0 = Clock::now();
        const sim::RankScan s = sim::scan_atoms(atoms, cfg.mass, global, rc);
        scan.push_back(us_since(t0));
        scan_tripped = scan_tripped || s.tripped();
      }
      shape.waits = static_cast<int>(c.forward_channels().size());
      shape.groups = std::max(1, md::ForceGroups::build(atoms, sub, rc).ngroups());
      shape.passes = std::max(1, pot->split_passes());
    }
    // Keep registered buffers alive until every peer is done with them.
    world.barrier(rank);
  });

  const auto all = [](const std::vector<std::vector<double>>& per_rank) {
    std::vector<double> v;
    for (const auto& s : per_rank) v.insert(v.end(), s.begin(), s.end());
    return median(v);
  };
  out.add("comm.forward_us", all(fwd), "probe");
  out.add("comm.reverse_us", all(rev), "probe");
  out.add("comm.borders_us", all(bord), "probe");
  out.add("comm.exchange_us", all(exch), "probe");
  out.add("mpi.allreduce_us", all(red), "probe");
  out.add("md.neigh_us", median(neigh), "probe");
  out.add("md.neigh_pairs", static_cast<double>(pairs), "probe");
  out.add("md.force_us", median(force), "probe");
  out.add("md.force_ns_per_pair",
          median(force) * 1e3 / static_cast<double>(std::max(1L, pairs)),
          "probe");
  if (scan_tripped) out.operation("integrity scan tripped on a clean lattice");
  out.add("sim.integrity_scan_us", median(scan), "probe");

  // Checkpoint of the whole system, written the way the self-healing
  // runtime writes one (atomic + fsync), into the artifact directory.
  sim::CheckpointState st;
  st.checkpoint_every = 10;
  st.comm_variant = opts.comm;
  st.seed = opts.seed;
  st.cells = opts.cells;
  st.rank_grid = opts.rank_grid;
  st.natoms = static_cast<long>(pos.size());
  st.box = global;
  st.rank_atoms.resize(static_cast<std::size_t>(nranks));
  for (std::size_t i = 0; i < pos.size(); ++i) {
    st.rank_atoms[static_cast<std::size_t>(decomp.owner_of(pos[i]))].push_back(
        {static_cast<std::int64_t>(i), pos[i], vel[i]});
  }
  const std::string path = dir + "/probe.ckpt";
  std::vector<double> write_ms;
  for (int i = 0; i < 5; ++i) {
    LayerSpan span(op, "sim", "write_checkpoint");
    const auto t0 = Clock::now();
    sim::write_checkpoint(path, st);
    write_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.add("sim.checkpoint_write_ms", median(write_ms), "probe");
  out.add("sim.checkpoint_bytes",
          static_cast<double>(std::filesystem::file_size(path)), "probe");
  std::filesystem::remove(path);
  return shape;
}

/// The metrics add_wait_ledger derives from the traced events.
constexpr const char* kWaitMetrics[] = {
    "comm.pack_us_step", "comm.notice_wait_us_step", "comm.wire_us_step",
    "comm.imbalance_us_step"};

/// Load imbalance of the traced step windows, in us per step: for each
/// step every rank still holds (aligned from the last one back), the
/// slowest rank's busy time (its step minus its notice waits) minus the
/// ranks' mean busy time, averaged over those steps. 0 without waits.
double step_imbalance_us(const std::vector<obs::CollectedEvent>& events) {
  struct Window {
    std::int64_t ts = 0, end = 0, wait = 0;
  };
  const auto is_span = [](const obs::TraceEvent& e) {
    return e.kind == obs::TraceEvent::kSpan && e.name != nullptr;
  };
  std::map<int, std::vector<Window>> windows;  // pid (rank) -> step windows
  for (const obs::CollectedEvent& ce : events) {
    const obs::TraceEvent& e = ce.event;
    if (is_span(e) && e.cat == obs::TraceCat::kSim &&
        std::strcmp(e.name, "step") == 0) {
      windows[ce.pid].push_back({e.ts_ns, e.ts_ns + e.dur_ns, 0});
    }
  }
  for (auto& [pid, w] : windows) {
    std::sort(w.begin(), w.end(),
              [](const Window& a, const Window& b) { return a.ts < b.ts; });
  }
  bool waited = false;
  for (const obs::CollectedEvent& ce : events) {
    const obs::TraceEvent& e = ce.event;
    const auto it = windows.find(ce.pid);
    if (!is_span(e) || std::strncmp(e.name, "wait.", 5) != 0 ||
        it == windows.end()) {
      continue;
    }
    const std::int64_t t = e.ts_ns + e.dur_ns;
    auto pos = std::upper_bound(
        it->second.begin(), it->second.end(), t,
        [](std::int64_t v, const Window& w) { return v < w.ts; });
    if (pos == it->second.begin() || t > (--pos)->end) continue;
    pos->wait += e.dur_ns;
    waited = true;
  }
  if (!waited || windows.size() < 2) return 0.0;
  std::size_t n = windows.begin()->second.size();
  for (const auto& [pid, w] : windows) n = std::min(n, w.size());
  double sum_ns = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    double slowest = 0.0, mean = 0.0;
    for (const auto& [pid, w] : windows) {
      const Window& s = w[w.size() - k];
      const double busy =
          static_cast<double>(s.end - s.ts - std::min(s.wait, s.end - s.ts));
      slowest = std::max(slowest, busy);
      mean += busy / static_cast<double>(windows.size());
    }
    sum_ns += slowest - mean;
  }
  return n == 0 ? 0.0 : sum_ns * 1e-3 / static_cast<double>(n);
}

/// The wait-derived metrics of the events the tracer holds: pack, notice
/// wait and wire transit per rank-step from the program's critical-path
/// report, and the step windows' load imbalance. A bucket a run did not
/// produce (no traced waits, or no flow-matched transit) is left out, not
/// reported as 0. The
/// report's own imbalance bucket (waits beyond wire transit) is not used:
/// the transits of the flows landing in a step add up to more than its
/// waits on every workload here, so it always reads 0.
void add_wait_ledger(const char* source, Outcome& out) {
  const std::vector<obs::CollectedEvent> events =
      obs::Tracer::instance().snapshot_events();
  const obs::CriticalPathReport cp = obs::analyze_critical_path(events);
  const double rank_steps =
      std::max(1.0, static_cast<double>(cp.nranks) * cp.nsteps);
  const auto add = [&](const char* metric, double us) {
    if (us > 0.0 && !out.has(metric)) out.add(metric, us, source);
  };
  for (const obs::CriticalPathRow& row : cp.rows) {
    const double us = row.seconds * 1e6 / rank_steps;
    if (row.name == "pack") add("comm.pack_us_step", us);
    if (row.name == "notice_wait") add("comm.notice_wait_us_step", us);
    if (row.name == "wire_transit") add("comm.wire_us_step", us);
  }
  add("comm.imbalance_us_step", step_imbalance_us(events));
}

}  // namespace

void probe_decomposition(const sim::SimOptions& opts, const std::string& dir,
                         Outcome& out) {
  const DagShape shape = probe_layers(opts, dir, out);
  const std::uint64_t op = Ledger::instance().new_op();

  // One 528-byte put (a typical forward block) and its completions.
  {
    tofu::Network net(2);
    tofu::UtofuContext a(net, 0), b(net, 1);
    tofu::RegisteredBuffer src = a.make_buffer(4096);
    tofu::RegisteredBuffer dst = b.make_buffer(4096);
    const tofu::VcqId va = a.create_vcq(0, 0);
    const tofu::VcqId vb = b.create_vcq(0, 0);
    LayerSpan span(op, "tofu", "put_528b");
    const double us = per_call_us(7, 2000, [&] {
      net.put(va, vb, src.stadd(), 0, dst.stadd(), 0, 528);
      net.wait_tcq(va);
      net.wait_mrq(vb);
    });
    out.add("tofu.put_528b_ns", us * 1e3, "probe");
  }

  pool::SpinThreadPool pool(2);
  {
    LayerSpan span(op, "pool", "parallel_static");
    out.add("pool.dispatch_us",
            per_call_us(7, 2000, [&] { pool.parallel_static([](int) {}); }),
            "probe");
  }
  {
    // No-op graph with the step DAG's shape: forward, chained waits,
    // force groups gated on the waits, a reduction per pass.
    pool::TaskGraph g;
    const auto noop = [] {};
    const int fwd = g.add("task.fwd", noop);
    int last = fwd;
    for (int w = 0; w < shape.waits; ++w) {
      const int node = g.add("task.wait", noop);
      g.depend(node, last);
      last = node;
    }
    int gate = fwd;
    for (int pass = 0; pass < shape.passes; ++pass) {
      std::vector<int> nodes;
      for (int k = 0; k < shape.groups; ++k) {
        const int node = g.add(k == 0 ? "task.interior" : "task.border", noop);
        g.depend(node, gate);
        if (pass == 0 && k > 0) g.depend(node, last);
        nodes.push_back(node);
      }
      const int reduce = g.add("task.reduce", noop);
      for (const int node : nodes) g.depend(reduce, node);
      if (pass == 0) g.depend(reduce, last);
      gate = reduce;
    }
    LayerSpan span(op, "pool", "task_graph_run");
    out.add("pool.dag_run_us", per_call_us(7, 1000, [&] { g.run(&pool); }),
            "probe");
  }
}

void add_run_ledger(const sim::JobResult& r, int nsteps, Outcome& out) {
  const double rank_steps =
      static_cast<double>(r.ranks.size()) * static_cast<double>(nsteps);
  const util::StageTimer st = r.total_stages();
  const auto stage_us = [&](util::Stage s) { return st.get(s) * 1e6 / rank_steps; };
  out.add("sim.pair_us_step", stage_us(util::Stage::kPair));
  out.add("sim.neigh_us_step", stage_us(util::Stage::kNeigh));
  out.add("sim.comm_us_step", stage_us(util::Stage::kComm));
  out.add("sim.modify_us_step", stage_us(util::Stage::kModify));
  out.add("sim.other_us_step", stage_us(util::Stage::kOther));

  if (r.alloc_guard.enabled && r.alloc_guard.tracker_available &&
      r.alloc_guard.steps_checked > 0) {
    out.add("sim.allocs_per_step",
            static_cast<double>(r.alloc_guard.post_warmup_allocs) /
                r.alloc_guard.steps_checked);
  }

  std::uint64_t msgs = 0, bytes = 0;
  for (const sim::RankResult& rr : r.ranks) {
    const comm::CommCounters& c = rr.comm;
    msgs += c.border_msgs + c.forward_msgs + c.reverse_msgs + c.scalar_msgs +
            c.exchange_msgs;
    bytes += c.bytes;
  }
  out.add("comm.msgs_per_step", static_cast<double>(msgs) / nsteps);
  out.add("comm.bytes_per_step", static_cast<double>(bytes) / nsteps);
  out.add("tofu.packets_per_step",
          static_cast<double>(r.fabric.total_packets) / nsteps);

  add_wait_ledger("run", out);
}

void complete_wait_ledger(const sim::SimOptions& opts, int nsteps,
                          Outcome& out) {
  const auto complete = [&out] {
    for (const char* m : kWaitMetrics) {
      if (!out.has(m)) return false;
    }
    return true;
  };
  if (complete()) return;
  // The same atoms and decomposition on the p2p dispatcher (Newton on:
  // p2p with it off is the excluded stage-ordering race).
  sim::SimOptions o = opts;
  o.comm = "6tni_p2p";
  o.executor = "barrier";
  o.config.newton = true;
  o.checkpoint_every = 0;
  obs::Tracer::instance().reset();
  obs::Tracer::instance().set_buffer_capacity(1 << 16);
  obs::set_metrics_enabled(true);
  obs::set_trace_categories(obs::kDefaultTraceCats);
  {
    LayerSpan span(Ledger::instance().new_op(), "sim", "dispatcher_probe");
    sim::run_simulation(o, nsteps);
  }
  obs::set_trace_categories(0);
  obs::set_metrics_enabled(false);
  add_wait_ledger("probe", out);
  if (!complete()) {
    throw std::runtime_error("the dispatcher probe traced no notice waits");
  }
}

}  // namespace lmp::bench
