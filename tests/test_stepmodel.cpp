#include <gtest/gtest.h>

#include "perf/stepmodel.h"

namespace lmp::perf {
namespace {

StepModel model() { return StepModel(default_calibration()); }

TEST(Workload, PaperConfigs) {
  const Workload lj = Workload::lj(4194304, 36864);
  EXPECT_EQ(lj.ranks(), 36864L * 4);
  EXPECT_NEAR(lj.atoms_per_rank(), 4194304.0 / 147456.0, 1e-9);
  // The paper quotes 2.3 atoms per core at the last point.
  EXPECT_NEAR(lj.atoms_per_rank() / 12.0, 2.3, 0.15);

  const Workload eam = Workload::eam(3456000, 36864);
  EXPECT_NEAR(eam.atoms_per_rank() / 12.0, 1.9, 0.15);
  EXPECT_TRUE(eam.neigh_check);
  EXPECT_EQ(eam.neigh_every, 5);
}

TEST(Workload, SubBoxSideFromDensity) {
  const Workload w = Workload::lj(865, 1);  // ~216 atoms/rank at rho .8442
  const double a = w.sub_box_side();
  EXPECT_NEAR(a * a * a * w.density, w.atoms_per_rank(), 1e-9);
}

TEST(StepModel, MessageSetsMatchTable1Counts) {
  const StepModel m = model();
  const Workload w = Workload::lj(65536, 768);
  int n3 = 0, np = 0;
  for (const auto& s : m.ghost_messages(w, PatternKind::kThreeStage, 24)) n3 += s.count;
  for (const auto& s : m.ghost_messages(w, PatternKind::kP2p, 24)) np += s.count;
  EXPECT_EQ(n3, 6);
  EXPECT_EQ(np, 13);
}

TEST(StepModel, PaperMessageSize528Bytes) {
  // 65K atoms on 768 nodes: "each MPI rank contains only 22 atoms, and
  // the size of each message is less than 528B" (Sec. 4.2).
  const Workload w = Workload::lj(65536, 768);
  EXPECT_NEAR(w.atoms_per_rank(), 21.3, 0.5);
  const StepModel m = model();
  for (const auto& s : m.ghost_messages(w, PatternKind::kP2p, 24)) {
    EXPECT_LT(s.bytes, 560.0);
  }
}

TEST(StepModel, BreakdownAllPositive) {
  const StepModel m = model();
  for (const CommConfig& cfg :
       {CommConfig::ref_mpi(), CommConfig::p2p_parallel()}) {
    const StepBreakdown b = m.step_time(Workload::lj(4194304, 768), cfg);
    EXPECT_GT(b.pair, 0);
    EXPECT_GT(b.neigh, 0);
    EXPECT_GT(b.comm, 0);
    EXPECT_GT(b.modify, 0);
    EXPECT_GT(b.other, 0);
    EXPECT_NEAR(b.total(), b.pair + b.neigh + b.comm + b.modify + b.other, 1e-15);
  }
}

TEST(StepModel, OptBeatsOriginEverywhere) {
  const StepModel m = model();
  for (long nodes : {768L, 2160L, 6144L, 18432L, 36864L}) {
    for (const double atoms : {4194304.0, 3456000.0}) {
      const Workload w = Workload::lj(atoms, nodes);
      const double origin = m.step_time(w, CommConfig::ref_mpi()).total();
      const double opt = m.step_time(w, CommConfig::p2p_parallel()).total();
      EXPECT_LT(opt, origin) << nodes;
    }
  }
}

TEST(StepModel, CommReductionInPaperBand) {
  // Headline: "reduce up to 77% of the communication time". Accept the
  // 70-90% band for the model.
  const StepModel m = model();
  const Workload w = Workload::lj(4194304, 36864);
  const double o = m.step_time(w, CommConfig::ref_mpi()).comm;
  const double p = m.step_time(w, CommConfig::p2p_parallel()).comm;
  const double reduction = 1.0 - p / o;
  EXPECT_GT(reduction, 0.70);
  EXPECT_LT(reduction, 0.90);
}

TEST(StepModel, SpeedupInPaperBand) {
  const StepModel m = model();
  const Workload lj = Workload::lj(4194304, 36864);
  const double s_lj = m.step_time(lj, CommConfig::ref_mpi()).total() /
                      m.step_time(lj, CommConfig::p2p_parallel()).total();
  EXPECT_GT(s_lj, 2.3);  // paper: 2.9
  EXPECT_LT(s_lj, 4.2);

  const Workload eam = Workload::eam(3456000, 36864);
  const double s_eam = m.step_time(eam, CommConfig::ref_mpi()).total() /
                       m.step_time(eam, CommConfig::p2p_parallel()).total();
  EXPECT_GT(s_eam, 1.8);  // paper: 2.2
  EXPECT_LT(s_eam, 3.6);
  // LJ improves more than EAM (EAM pays the allreduce in Other).
  EXPECT_GT(s_lj, s_eam);
}

TEST(StepModel, EamOtherShareLargerThanComm) {
  // Table 3: Opt-EAM "Other" (31.84%) exceeds its Comm share (20.02%).
  const StepModel m = model();
  const StepBreakdown b =
      m.step_time(Workload::eam(3456000, 36864), CommConfig::p2p_parallel());
  EXPECT_GT(b.other, b.comm);
}

TEST(StepModel, OriginCommDominatesAtScale) {
  // Paper Sec. 2.1: communication takes up to 64% of origin time at
  // 36864 nodes.
  const StepModel m = model();
  const StepBreakdown b =
      m.step_time(Workload::lj(4194304, 36864), CommConfig::ref_mpi());
  EXPECT_GT(b.comm / b.total(), 0.5);
}

TEST(StepModel, PoolCutsPairTimeAtSmallCounts) {
  // Fig. 12c: thread pool cuts the 65K pair stage by ~43% (LJ).
  const StepModel m = model();
  const Workload w = Workload::lj(65536, 768);
  CommConfig omp = CommConfig::p2p_6tni();  // OpenMP runtime
  CommConfig pool = CommConfig::p2p_parallel();
  const double drop = 1.0 - m.step_time(w, pool).pair / m.step_time(w, omp).pair;
  EXPECT_GT(drop, 0.25);
  EXPECT_LT(drop, 0.85);
}

TEST(StepModel, EamMidCommChargedToPair) {
  const StepModel m = model();
  const Workload lj = Workload::lj(65536, 768);
  Workload eam = Workload::eam(65536, 768);
  const CommConfig cfg = CommConfig::ref_mpi();
  // Same atom count: EAM pair must cost far more than LJ pair (heavier
  // kernel + two extra exchanges).
  EXPECT_GT(m.step_time(eam, cfg).pair, 2.0 * m.step_time(lj, cfg).pair);
}

TEST(StepModel, Fig15CrossoverAt124) {
  const StepModel m = model();
  Workload w26 = Workload::lj(65536, 768);
  w26.newton = false;
  Workload w62 = Workload::lj(65536, 768);
  w62.cutoff = 5.0;  // cutoff exceeds the sub-box side (~2.9)
  w62.shells = 2;
  Workload w124 = w62;
  w124.newton = false;

  const CommConfig p2p = CommConfig::p2p_parallel();
  const CommConfig st = CommConfig::utofu_3stage();
  EXPECT_LT(m.exchange_once(w26, p2p, 24), m.exchange_once(w26, st, 24));
  EXPECT_LT(m.exchange_once(w62, p2p, 24), m.exchange_once(w62, st, 24));
  EXPECT_GT(m.exchange_once(w124, p2p, 24), m.exchange_once(w124, st, 24));
}

TEST(StepModel, CommNoiseGrowsWithScale) {
  const StepModel m = model();
  EXPECT_DOUBLE_EQ(m.comm_noise(1), 1.0);
  EXPECT_LT(m.comm_noise(3072), m.comm_noise(147456));
}

TEST(StepModel, BadWorkloadThrows) {
  const StepModel m = model();
  EXPECT_THROW(m.step_time(Workload::lj(0, 768), CommConfig::ref_mpi()),
               std::invalid_argument);
  EXPECT_THROW(m.step_time(Workload::lj(1000, 0), CommConfig::ref_mpi()),
               std::invalid_argument);
}

}  // namespace
}  // namespace lmp::perf
