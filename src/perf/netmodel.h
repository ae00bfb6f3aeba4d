#pragma once

#include <span>
#include <vector>

#include "perf/calibration.h"

namespace lmp::perf {

enum class Api { kMpi, kUtofu };
enum class PatternKind { kThreeStage, kP2p };
enum class Runtime { kOpenMp, kPool };

/// One message class of an exchange (mirrors geom::MessageClass but in
/// bytes, already multiplied out per message).
struct MsgSpec {
  double bytes = 0;
  int hops = 1;
  int count = 1;
};

/// Communication-side configuration of a variant (paper Fig. 12 legend).
struct CommConfig {
  PatternKind pattern = PatternKind::kP2p;
  Api api = Api::kUtofu;
  int ntnis = 6;         ///< TNIs the rank's VCQs are spread over
  int comm_threads = 1;  ///< threads driving communication
  int ranks_per_node = 4;
  Runtime runtime = Runtime::kPool;
  /// Receiver writes land directly in the target array (pre-registered
  /// RDMA, Sec. 3.4) — no unpack copy.
  bool direct_write = false;

  static CommConfig ref_mpi();        ///< baseline LAMMPS
  static CommConfig mpi_p2p();        ///< naive MPI p2p (Fig. 6)
  static CommConfig utofu_3stage();
  static CommConfig p2p_4tni();
  static CommConfig p2p_6tni();
  static CommConfig p2p_parallel();   ///< the optimized code
};

/// Point-to-point message timing on the modeled TofuD fabric.
class NetModel {
 public:
  explicit NetModel(const Calibration& cal) : cal_(cal) {}

  double t_inj(Api api) const;
  double t_recv(Api api) const;

  /// Wire transit: base latency + per-hop latency + serialization.
  double transit(double bytes, int hops) const;

  /// Full one-way software+wire time for an isolated message (the T_i of
  /// Table 1's last column).
  double message_time(Api api, double bytes, int hops) const;

  /// Duration of one ghost exchange (forward or reverse direction) for a
  /// rank with the given message set — the discrete-event schedule over
  /// the rank's comm threads and TNIs described in DESIGN.md. 3-stage
  /// patterns insert a completion barrier between the three sub-stages.
  double exchange_time(const CommConfig& cfg, std::span<const MsgSpec> msgs,
                       double extra_recv_bytes_factor = 1.0) const;

  /// Message rate (msg/s) of a node issuing back-to-back puts of `bytes`
  /// (Fig. 8): `threads` CPU threads driving VCQs over `ntnis` TNIs with
  /// `ranks_per_node` ranks contending.
  double message_rate(Api api, double bytes, int threads, int ntnis,
                      int ranks_per_node) const;

  /// Allreduce latency over `ranks` ranks (binary-tree model).
  double allreduce_time(long ranks) const;

  const Calibration& calibration() const { return cal_; }

 private:
  Calibration cal_;
};

}  // namespace lmp::perf
