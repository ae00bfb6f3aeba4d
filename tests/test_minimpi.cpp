#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

#include "minimpi/runtime.h"
#include "minimpi/world.h"

namespace lmp::minimpi {
namespace {

std::vector<std::byte> bytes_of(double v) {
  std::vector<std::byte> out(sizeof(double));
  std::memcpy(out.data(), &v, sizeof(double));
  return out;
}

double double_of(const std::vector<std::byte>& b) {
  double v;
  std::memcpy(&v, b.data(), sizeof(double));
  return v;
}

TEST(World, SendRecvSelf) {
  World w(1);
  w.send(0, 0, 7, bytes_of(3.25));
  EXPECT_DOUBLE_EQ(double_of(w.recv(0, 0, 7)), 3.25);
}

TEST(World, TagMatching) {
  World w(1);
  w.send(0, 0, 1, bytes_of(1.0));
  w.send(0, 0, 2, bytes_of(2.0));
  // Receive tag 2 first even though tag 1 arrived earlier.
  EXPECT_DOUBLE_EQ(double_of(w.recv(0, 0, 2)), 2.0);
  EXPECT_DOUBLE_EQ(double_of(w.recv(0, 0, 1)), 1.0);
}

TEST(World, FifoPerSourceAndTag) {
  World w(1);
  for (int i = 0; i < 10; ++i) w.send(0, 0, 5, bytes_of(i));
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(double_of(w.recv(0, 0, 5)), i);
  }
}

TEST(World, AnySourceReportsActualSender) {
  World w(2);
  w.send(1, 0, 3, bytes_of(9.0));
  int src = -2;
  EXPECT_DOUBLE_EQ(double_of(w.recv(0, kAnySource, 3, &src)), 9.0);
  EXPECT_EQ(src, 1);
}

TEST(World, CrossRankSendRecv) {
  World w(2);
  run_ranks(2, [&](int rank) {
    if (rank == 0) {
      w.send(0, 1, 0, bytes_of(1.25));
      EXPECT_DOUBLE_EQ(double_of(w.recv(0, 1, 1)), 2.5);
    } else {
      EXPECT_DOUBLE_EQ(double_of(w.recv(1, 0, 0)), 1.25);
      w.send(1, 0, 1, bytes_of(2.5));
    }
  });
}

TEST(World, SendRecvCombined) {
  World w(3);
  // Ring shift: rank r sends to r+1, receives from r-1.
  run_ranks(3, [&](int rank) {
    const int dst = (rank + 1) % 3;
    const int src = (rank + 2) % 3;
    const auto got = w.sendrecv(rank, dst, src, 4, bytes_of(rank));
    EXPECT_DOUBLE_EQ(double_of(got), src);
  });
}

TEST(World, BarrierSynchronizes) {
  World w(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_ranks(4, [&](int rank) {
    before.fetch_add(1);
    w.barrier(rank);
    if (before.load() != 4) violated = true;
    w.barrier(rank);
  });
  EXPECT_FALSE(violated.load());
}

TEST(World, AllreduceSumDouble) {
  World w(4);
  run_ranks(4, [&](int rank) {
    const double s = w.allreduce_sum(rank, static_cast<double>(rank + 1));
    EXPECT_DOUBLE_EQ(s, 10.0);
  });
}

TEST(World, AllreduceRepeatedRounds) {
  World w(3);
  run_ranks(3, [&](int rank) {
    for (int round = 0; round < 50; ++round) {
      const double s = w.allreduce_sum(rank, static_cast<double>(round));
      EXPECT_DOUBLE_EQ(s, 3.0 * round);
    }
  });
}

TEST(World, AllreduceInt64Sum) {
  World w(4);
  run_ranks(4, [&](int rank) {
    EXPECT_EQ(w.allreduce_sum(rank, static_cast<std::int64_t>(1) << rank), 15);
  });
}

TEST(World, AllreduceLogicalOr) {
  World w(4);
  run_ranks(4, [&](int rank) {
    EXPECT_TRUE(w.allreduce_lor(rank, rank == 2));
    EXPECT_FALSE(w.allreduce_lor(rank, false));
  });
}

TEST(World, InvalidConstruction) {
  EXPECT_THROW(World(0), std::invalid_argument);
}

TEST(World, PoisonUnblocksBlockedRecv) {
  World w(2);
  run_ranks(2, [&](int rank) {
    if (rank == 0) {
      // Block on a message that will never come; the poison must wake us.
      EXPECT_THROW(w.recv(0, 1, 99), PoisonedError);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      w.poison("rank 1 failed");
    }
  });
}

TEST(World, PoisonUnblocksBarrierAndRefusesSend) {
  World w(3);
  run_ranks(3, [&](int rank) {
    if (rank == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      w.poison("rank 2 failed");
      return;
    }
    try {
      w.barrier(rank);  // only 2 of 3 arrive — poisoned wake-up
      FAIL() << "barrier completed without rank 2";
    } catch (const PoisonedError& e) {
      EXPECT_NE(std::string(e.what()).find("rank 2 failed"),
                std::string::npos);
    }
    EXPECT_THROW(w.send(rank, (rank + 1) % 3, 0, bytes_of(1.0)),
                 PoisonedError);
  });
  EXPECT_TRUE(w.poisoned());
}

TEST(RunRanks, PropagatesExceptions) {
  EXPECT_THROW(
      run_ranks(3, [&](int rank) {
        if (rank == 1) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(RunRanks, SingleRankRunsInline) {
  std::thread::id id{};
  run_ranks(1, [&](int) { id = std::this_thread::get_id(); });
  EXPECT_TRUE(id == std::this_thread::get_id());
}

}  // namespace
}  // namespace lmp::minimpi
