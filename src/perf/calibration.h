#pragma once

namespace lmp::perf {

/// All tunable constants of the performance model, each annotated with
/// the anchor it was calibrated against. Absolute times on the authors'
/// Fugaku testbed are not reproducible on other hardware; these values
/// are chosen so the model reproduces the paper's *ratios and shapes*
/// (speedups, % reductions, crossovers). EXPERIMENTS.md records
/// paper-vs-model numbers for every figure/table.
struct Calibration {
  // --- network software costs (seconds per message) -------------------
  /// MPI per-message injection overhead T_inj: the heavy software stack
  /// (matching, fragmentation) the paper blames for naive MPI-p2p losing
  /// to MPI-3-stage (Fig. 6); magnitude per Zambre et al. [33].
  double t_inj_mpi = 1.70e-6;
  /// uTofu descriptor-write injection overhead (paper: "low communication
  /// overhead and small T_inj").
  double t_inj_utofu = 0.22e-6;
  /// Receive-side software: MPI tag matching + copy-out vs MRQ poll.
  double t_recv_mpi = 1.20e-6;
  double t_recv_utofu = 0.16e-6;
  /// MPI rendezvous threshold and handshake (eager beyond this needs an
  /// RTS/CTS round trip).
  double mpi_eager_bytes = 16 * 1024.0;

  // --- TofuD hardware (paper Sec. 2.2 / [2]) ---------------------------
  double t_base_latency = 0.49e-6;  ///< minimal one-hop put latency
  double t_hop = 0.10e-6;           ///< per additional hop
  double link_bw = 6.8e9;           ///< B/s injection bandwidth per TNI
  /// TNI DMA engine occupancy floor per message (limits small-message
  /// rate per TNI; ~5 Mmsg/s per TNI full-machine class).
  double t_tni_occupancy = 0.12e-6;
  /// Extra software cost when one thread multiplexes several VCQs (the
  /// "significant time overhead ... by the software function call" that
  /// makes single-thread 6-TNI slower than 4-TNI, Sec. 4.2).
  double t_vcq_switch = 0.30e-6;

  // --- memory/pack costs ----------------------------------------------
  double t_pack_per_byte = 0.012e-9;  ///< ~80 GB/s effective pack rate

  // --- threading runtimes (paper Sec. 3.3 micro-measurement) -----------
  double omp_region_overhead = 5.8e-6;
  double pool_region_overhead = 1.1e-6;
  /// Parallel regions executed per step in the pair+modify path (force
  /// loop, EAM passes, integrate halves, packing).
  double regions_per_step_pair = 4.0;
  double regions_per_step_modify = 2.0;

  // --- compute kernels (per core, A64FX-class) --------------------------
  double t_pair_lj = 28e-9;        ///< s per LJ pair interaction
  double t_pair_eam = 300e-9;      ///< s per EAM pair (two passes, three
                                   ///< spline evaluations, divides)
  double t_neigh_pair = 16e-9;     ///< s per candidate pair at rebuild
  double t_peratom_modify = 3.0e-9;
  double t_peratom_ghost = 25.0e-9; ///< per-atom+ghost pair-stage bookkeeping
                                   ///< (force zeroing, list traversal, pack)

  // --- collectives & synchronization ------------------------------------
  /// Allreduce latency coefficient: t = c * log2(ranks) (the EAM
  /// `check yes` cost the paper measures as "Other", Sec. 4.3.1).
  double t_allreduce_per_level = 12.0e-6;
  /// Straggler/system-noise cost per step, grows with machine size:
  /// t_sync = t_noise_base * log2(ranks). LAMMPS' stage timers account
  /// this where the next blocking call sits (we charge it to Modify and
  /// Other, matching the Table 3 pattern).
  double t_noise_base = 1.2e-6;
  /// Inter-stage synchronization of the 3-stage pattern ("an MPI barrier
  /// is mandatory between stages", Sec. 3.1) — charged per extra stage.
  double t_stage_barrier = 0.8e-6;
  /// Completion-queue polling grows superlinearly with in-flight message
  /// count (the paper's "p2p is an n-squared extension", Sec. 4.4):
  /// charged as t * count^2 for p2p exchanges.
  double t_p2p_poll_quad = 1.2e-9;
  /// Communication straggler amplification: at scale, each step's ghost
  /// exchange waits for the slowest neighbor chain, inflating raw
  /// message time by lambda = 1 + comm_noise_per_level * log2(ranks).
  /// Applied to every variant equally (it is a property of the machine),
  /// so the paper's relative comm reductions survive it.
  double comm_noise_per_level = 0.22;

  // --- workload geometry -------------------------------------------------
  int ranks_per_node = 4;
  int threads_per_rank = 12;
};

/// The default calibration used by every bench.
const Calibration& default_calibration();

}  // namespace lmp::perf
