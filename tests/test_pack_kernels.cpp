#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "comm/pack_kernels.h"
#include "md/atoms.h"
#include "util/vec3.h"

namespace lmp::comm {
namespace {

md::Atoms sample_atoms() {
  md::Atoms atoms;
  atoms.reserve_capacity(16);
  atoms.add_local({1.0, 2.0, 3.0}, {0.1, 0.2, 0.3}, 101);
  atoms.add_local({4.0, 5.0, 6.0}, {0.4, 0.5, 0.6}, 102);
  atoms.add_local({7.0, 8.0, 9.0}, {0.7, 0.8, 0.9}, 103);
  return atoms;
}

TEST(PackKernels, BorderRoundTripShiftsAndKeepsTags) {
  const md::Atoms src = sample_atoms();
  const std::vector<int> list{2, 0};
  const util::Vec3 shift{10.0, -20.0, 0.0};
  const std::vector<double> buf = pack_border(src, list, shift);
  ASSERT_EQ(buf.size(), list.size() * kBorderDoubles);

  md::Atoms dst;
  dst.reserve_capacity(8);
  dst.add_local({0, 0, 0}, {}, 1);
  const int added = unpack_border(dst, buf);
  EXPECT_EQ(added, 2);
  ASSERT_EQ(dst.nghost(), 2);
  // Ghosts land after the locals, in list order, shifted into our frame.
  EXPECT_EQ(dst.pos(1), (util::Vec3{17.0, -12.0, 9.0}));
  EXPECT_EQ(dst.tag(1), 103);
  EXPECT_EQ(dst.pos(2), (util::Vec3{11.0, -18.0, 3.0}));
  EXPECT_EQ(dst.tag(2), 101);
}

TEST(PackKernels, RawAndVectorOverloadsAgree) {
  const md::Atoms src = sample_atoms();
  const std::vector<int> list{0, 1, 2};
  const util::Vec3 shift{-1.0, 2.0, 3.5};

  const std::vector<double> vec = pack_border(src, list, shift);
  std::vector<double> raw(list.size() * kBorderDoubles, -1.0);
  EXPECT_EQ(pack_border(src, list, shift, raw.data()), raw.size());
  EXPECT_EQ(raw, vec);

  const std::vector<double> vpos = pack_positions(src.x(), list, shift);
  std::vector<double> rpos(list.size() * kPositionDoubles, -1.0);
  EXPECT_EQ(pack_positions(src.x(), list, shift, rpos.data()), rpos.size());
  EXPECT_EQ(rpos, vpos);

  const std::vector<double> vex = pack_exchange(src, list, shift);
  std::vector<double> rex(list.size() * kExchangeDoubles, -1.0);
  EXPECT_EQ(pack_exchange(src, list, shift, rex.data()), rex.size());
  EXPECT_EQ(rex, vex);
}

TEST(PackKernels, PositionsRoundTripIntoGhostBlock) {
  const md::Atoms src = sample_atoms();
  const std::vector<int> list{1, 2};
  const util::Vec3 shift{0.0, 0.0, 5.0};
  const std::vector<double> buf = pack_positions(src.x(), list, shift);
  ASSERT_EQ(buf.size(), 6u);

  md::Atoms dst;
  dst.reserve_capacity(8);
  dst.add_local({0, 0, 0}, {}, 1);
  const int start = dst.add_ghost({}, 2);
  dst.add_ghost({}, 3);
  unpack_positions(dst.x(), start, buf);
  EXPECT_EQ(dst.pos(start), (util::Vec3{4.0, 5.0, 11.0}));
  EXPECT_EQ(dst.pos(start + 1), (util::Vec3{7.0, 8.0, 14.0}));
}

TEST(PackKernels, ScalarRoundTrip) {
  const std::vector<double> rho{1.5, 2.5, 3.5, 4.5};
  const std::vector<int> list{3, 1};
  const std::vector<double> buf = pack_scalar(rho.data(), list);
  EXPECT_EQ(buf, (std::vector<double>{4.5, 2.5}));

  std::vector<double> dst(6, 0.0);
  unpack_scalar(dst.data(), /*ghost_start=*/4, buf);
  EXPECT_EQ(dst, (std::vector<double>{0, 0, 0, 0, 4.5, 2.5}));
}

TEST(PackKernels, ExchangeRoundTripCarriesVelocityAndTag) {
  const md::Atoms src = sample_atoms();
  const std::vector<int> list{1};
  const util::Vec3 shift{-10.0, 0.0, 0.0};
  const std::vector<double> buf = pack_exchange(src, list, shift);
  ASSERT_EQ(buf.size(), static_cast<std::size_t>(kExchangeDoubles));

  md::Atoms dst;
  dst.reserve_capacity(4);
  const int added = unpack_exchange(dst, buf);
  EXPECT_EQ(added, 1);
  ASSERT_EQ(dst.nlocal(), 1);
  EXPECT_EQ(dst.pos(0), (util::Vec3{-6.0, 5.0, 6.0}));
  EXPECT_EQ(dst.vel(0), (util::Vec3{0.4, 0.5, 0.6}));
  EXPECT_EQ(dst.tag(0), 102);
}

TEST(PackKernels, ExchangeSlabKeepsOnlyTheResidentRange) {
  // Staged exchange broadcasts both ways along an axis; the receiver
  // keeps only records whose coordinate lands in its [lo, hi) slab.
  const md::Atoms src = sample_atoms();  // x coords 1, 4, 7
  const std::vector<int> list{0, 1, 2};
  const std::vector<double> buf = pack_exchange(src, list, {});

  md::Atoms dst;
  dst.reserve_capacity(4);
  const int kept = unpack_exchange_slab(dst, buf, /*axis=*/0, 3.0, 7.0);
  EXPECT_EQ(kept, 1);
  ASSERT_EQ(dst.nlocal(), 1);
  EXPECT_EQ(dst.tag(0), 102);
  // hi is exclusive: x == 7 was dropped, x == 1 was below lo.
}

TEST(PackKernels, AddForcesAccumulatesOntoOwners) {
  md::Atoms atoms = sample_atoms();
  atoms.zero_forces();
  const std::vector<int> list{0, 2};
  const std::vector<double> returned{1.0, 2.0, 3.0, -1.0, -2.0, -3.0};
  add_forces(atoms.f(), list, returned);
  add_forces(atoms.f(), list, returned);  // accumulates, not overwrites
  EXPECT_EQ(atoms.force(0), (util::Vec3{2.0, 4.0, 6.0}));
  EXPECT_EQ(atoms.force(1), (util::Vec3{0.0, 0.0, 0.0}));
  EXPECT_EQ(atoms.force(2), (util::Vec3{-2.0, -4.0, -6.0}));
}

TEST(PackKernels, MismatchedReversePayloadsThrow) {
  md::Atoms atoms = sample_atoms();
  const std::vector<int> list{0, 1};
  const std::vector<double> short_forces{1.0, 2.0, 3.0};
  EXPECT_THROW(add_forces(atoms.f(), list, short_forces), std::logic_error);
  std::vector<double> rho(4, 0.0);
  const std::vector<double> one{1.0};
  EXPECT_THROW(add_scalar(rho.data(), list, one), std::logic_error);
}

TEST(PackKernels, AddScalarAccumulates) {
  std::vector<double> rho{1.0, 2.0, 3.0};
  const std::vector<int> list{2, 0};
  const std::vector<double> in{10.0, 100.0};
  add_scalar(rho.data(), list, in);
  EXPECT_EQ(rho, (std::vector<double>{101.0, 2.0, 13.0}));
}

}  // namespace
}  // namespace lmp::comm
