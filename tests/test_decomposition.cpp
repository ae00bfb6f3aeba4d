#include <gtest/gtest.h>

#include <set>

#include "geom/decomposition.h"
#include "util/rng.h"

namespace lmp::geom {
namespace {

Decomposition make(util::Int3 grid) {
  return Decomposition(grid, Box{{0, 0, 0}, {12, 12, 12}});
}

TEST(Decomposition, RankCoordRoundTrip) {
  const Decomposition d = make({3, 4, 5});
  for (int r = 0; r < d.nranks(); ++r) {
    EXPECT_EQ(d.rank_of(d.coord_of(r)), r);
  }
}

TEST(Decomposition, XFastestOrdering) {
  const Decomposition d = make({3, 2, 2});
  EXPECT_EQ(d.coord_of(0), (util::Int3{0, 0, 0}));
  EXPECT_EQ(d.coord_of(1), (util::Int3{1, 0, 0}));
  EXPECT_EQ(d.coord_of(3), (util::Int3{0, 1, 0}));
  EXPECT_EQ(d.coord_of(6), (util::Int3{0, 0, 1}));
}

TEST(Decomposition, PeriodicWrapInRankOf) {
  const Decomposition d = make({3, 3, 3});
  EXPECT_EQ(d.rank_of({-1, 0, 0}), d.rank_of({2, 0, 0}));
  EXPECT_EQ(d.rank_of({3, 4, -2}), d.rank_of({0, 1, 1}));
}

TEST(Decomposition, SubBoxesTileTheDomain) {
  const Decomposition d = make({2, 3, 2});
  double vol = 0;
  for (int r = 0; r < d.nranks(); ++r) vol += d.sub_box(r).volume();
  EXPECT_NEAR(vol, d.global().volume(), 1e-9);
}

TEST(Decomposition, SubBoxesDisjoint) {
  const Decomposition d = make({2, 2, 2});
  util::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p{rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 12)};
    int owners = 0;
    for (int r = 0; r < d.nranks(); ++r) owners += d.sub_box(r).contains(p);
    EXPECT_EQ(owners, 1);
  }
}

TEST(Decomposition, OwnerOfMatchesSubBox) {
  const Decomposition d = make({3, 2, 4});
  util::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p{rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 12)};
    const int owner = d.owner_of(p);
    EXPECT_TRUE(d.sub_box(owner).contains(p));
  }
}

TEST(Decomposition, OwnerOfWrapsOutsidePoints) {
  const Decomposition d = make({2, 2, 2});
  EXPECT_EQ(d.owner_of({-1, 5, 5}), d.owner_of({11, 5, 5}));
}

TEST(Decomposition, InvalidInputsThrow) {
  EXPECT_THROW(make({0, 1, 1}), std::invalid_argument);
  const Decomposition d = make({2, 2, 2});
  EXPECT_THROW(d.coord_of(8), std::out_of_range);
  EXPECT_THROW(d.coord_of(-1), std::out_of_range);
}

}  // namespace
}  // namespace lmp::geom
