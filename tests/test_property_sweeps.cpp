#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "geom/ghost_algebra.h"
#include "md/neighbor.h"
#include "perf/stepmodel.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace lmp {
namespace {

// ---------------------------------------------------------------------
// Property: every comm variant reproduces the reference trajectory.
// ---------------------------------------------------------------------

std::vector<double> fingerprint(const sim::JobResult& r) {
  std::vector<double> out;
  for (const auto& s : r.thermo) {
    out.push_back(s.state.temperature);
    out.push_back(s.state.pressure);
    out.push_back(s.state.total());
  }
  return out;
}

sim::SimOptions base_opts() {
  sim::SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {6, 6, 6};
  o.thermo_every = 10;
  return o;
}

const std::vector<double>& reference_fingerprint() {
  static std::vector<double> ref;
  static std::once_flag once;
  std::call_once(once, [] {
    sim::SimOptions o = base_opts();
    o.rank_grid = {1, 1, 1};
    o.comm = "ref";
    ref = fingerprint(sim::run_simulation(o, 30));
  });
  return ref;
}

void expect_matches_reference(const sim::JobResult& r, double tol) {
  const auto& ref = reference_fingerprint();
  const auto got = fingerprint(r);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale = std::max({std::fabs(ref[i]), std::fabs(got[i]), 1.0});
    EXPECT_NEAR(got[i], ref[i], tol * scale) << "element " << i;
  }
}

class VariantSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(VariantSweep, ReproducesReferenceTrajectory) {
  sim::SimOptions o = base_opts();
  o.rank_grid = {2, 2, 2};
  o.comm = GetParam();
  expect_matches_reference(sim::run_simulation(o, 30), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantSweep,
    ::testing::Values("ref", "mpi_p2p", "utofu_3stage", "4tni_p2p",
                      "6tni_p2p", "opt"),
    [](const auto& info) { return std::string(info.param); });

// ---------------------------------------------------------------------
// Property: any admissible rank grid yields the same physics.
// ---------------------------------------------------------------------

struct GridCase {
  util::Int3 grid;
  const char* name;
};

class GridSweep : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridSweep, DecompositionInvariance) {
  sim::SimOptions o = base_opts();
  o.rank_grid = GetParam().grid;
  o.comm = "opt";
  expect_matches_reference(sim::run_simulation(o, 30), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridSweep,
    ::testing::Values(GridCase{{1, 1, 1}, "g111"}, GridCase{{2, 1, 1}, "g211"},
                      GridCase{{1, 2, 1}, "g121"}, GridCase{{1, 1, 2}, "g112"},
                      GridCase{{2, 2, 1}, "g221"}, GridCase{{3, 2, 1}, "g321"},
                      GridCase{{2, 2, 2}, "g222"}, GridCase{{3, 3, 3}, "g333"}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------
// Property: the neighbor list equals brute force for any density/cutoff.
// ---------------------------------------------------------------------

struct NeighborCase {
  int natoms;
  double box;
  double cutoff;
  const char* name;
};

class NeighborSweep : public ::testing::TestWithParam<NeighborCase> {};

TEST_P(NeighborSweep, FullListMatchesBruteForce) {
  const auto& p = GetParam();
  util::Rng rng(1234);
  md::Atoms a;
  a.reserve_capacity(p.natoms + 4);
  for (int i = 0; i < p.natoms; ++i) {
    a.add_local({rng.uniform(0, p.box), rng.uniform(0, p.box),
                 rng.uniform(0, p.box)},
                {0, 0, 0}, i);
  }
  md::NeighborBuilder b(p.cutoff);
  const md::NeighborList l = b.build_full(a);
  long brute = 0;
  for (int i = 0; i < p.natoms; ++i) {
    for (int j = 0; j < p.natoms; ++j) {
      if (i == j) continue;
      brute += norm_sq(a.pos(i) - a.pos(j)) < p.cutoff * p.cutoff;
    }
  }
  EXPECT_EQ(l.total_pairs(), brute);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, NeighborSweep,
    ::testing::Values(NeighborCase{50, 4.0, 0.8, "sparse"},
                      NeighborCase{200, 4.0, 1.0, "medium"},
                      NeighborCase{400, 3.0, 1.4, "dense"},
                      NeighborCase{100, 10.0, 4.0, "bigcut"},
                      NeighborCase{30, 2.0, 5.0, "cutoff_exceeds_box"}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------
// Property: Table 1's volume identities hold for any geometry.
// ---------------------------------------------------------------------

struct AlgebraCase {
  double a;
  double r;
  const char* name;
};

class AlgebraSweep : public ::testing::TestWithParam<AlgebraCase> {};

TEST_P(AlgebraSweep, VolumeIdentities) {
  const geom::GhostAlgebra g{GetParam().a, GetParam().r};
  EXPECT_NEAR(geom::GhostAlgebra::total_volume(g.three_stage()),
              g.three_stage_total_volume(), 1e-9 * g.three_stage_total_volume());
  EXPECT_NEAR(geom::GhostAlgebra::total_volume(g.p2p(true)),
              g.p2p_total_volume_newton(), 1e-9 * g.p2p_total_volume_newton());
  EXPECT_NEAR(g.three_stage_total_volume(), 2.0 * g.p2p_total_volume_newton(),
              1e-9 * g.three_stage_total_volume());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AlgebraSweep,
    ::testing::Values(AlgebraCase{1.0, 0.1, "thin"}, AlgebraCase{3.0, 1.2, "lj"},
                      AlgebraCase{6.5, 5.95, "eam"},
                      AlgebraCase{100.0, 2.8, "bigbox"},
                      AlgebraCase{2.8, 2.8, "equal"}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------
// Property: the optimized exchange beats the MPI 3-stage exchange for
// every single-shell workload geometry (Fig. 6 generalized).
// ---------------------------------------------------------------------

struct ModelCase {
  double natoms;
  long nodes;
  const char* name;
};

class ExchangeSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ExchangeSweep, ParallelP2pBeatsMpi3Stage) {
  const perf::StepModel m(perf::default_calibration());
  const perf::Workload w = perf::Workload::lj(GetParam().natoms, GetParam().nodes);
  EXPECT_LT(m.exchange_once(w, perf::CommConfig::p2p_parallel(), 24),
            m.exchange_once(w, perf::CommConfig::ref_mpi(), 24));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ExchangeSweep,
    ::testing::Values(ModelCase{65536, 768, "small768"},
                      ModelCase{1700000, 768, "big768"},
                      ModelCase{4194304, 2160, "strong2160"},
                      ModelCase{4194304, 36864, "strong36864"},
                      ModelCase{99.5e9, 20736, "weak20736"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace lmp
