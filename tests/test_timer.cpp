#include <gtest/gtest.h>

#include "obs/tracer.h"
#include "util/timer.h"

namespace lmp::util {
namespace {

TEST(StageTimer, AccumulatesPerStage) {
  StageTimer t;
  t.add(Stage::kPair, 1.0);
  t.add(Stage::kPair, 2.0);
  t.add(Stage::kComm, 4.0);
  EXPECT_DOUBLE_EQ(t.get(Stage::kPair), 3.0);
  EXPECT_DOUBLE_EQ(t.get(Stage::kComm), 4.0);
  EXPECT_DOUBLE_EQ(t.get(Stage::kOther), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 7.0);
}

TEST(StageTimer, Percent) {
  StageTimer t;
  t.add(Stage::kComm, 3.0);
  t.add(Stage::kPair, 1.0);
  EXPECT_DOUBLE_EQ(t.percent(Stage::kComm), 75.0);
  StageTimer empty;
  EXPECT_DOUBLE_EQ(empty.percent(Stage::kComm), 0.0);
}

TEST(StageTimer, Reset) {
  StageTimer t;
  t.add(Stage::kNeigh, 1.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(StageTimer, PlusEquals) {
  StageTimer a, b;
  a.add(Stage::kModify, 1.0);
  b.add(Stage::kModify, 2.0);
  b.add(Stage::kOther, 0.5);
  a += b;
  EXPECT_DOUBLE_EQ(a.get(Stage::kModify), 3.0);
  EXPECT_DOUBLE_EQ(a.get(Stage::kOther), 0.5);
}

TEST(StageTimer, StageNames) {
  EXPECT_EQ(stage_name(Stage::kPair), "Pair");
  EXPECT_EQ(stage_name(Stage::kNeigh), "Neigh");
  EXPECT_EQ(stage_name(Stage::kComm), "Comm");
  EXPECT_EQ(stage_name(Stage::kModify), "Modify");
  EXPECT_EQ(stage_name(Stage::kOther), "Other");
  // The span / alloc-scope key is the same table entry, prefixed.
  EXPECT_STREQ(stage_trace_name(Stage::kPair), "stage:Pair");
  EXPECT_STREQ(stage_trace_name(Stage::kNeigh), "stage:Neigh");
  EXPECT_STREQ(stage_trace_name(Stage::kComm), "stage:Comm");
  EXPECT_STREQ(stage_trace_name(Stage::kModify), "stage:Modify");
  EXPECT_STREQ(stage_trace_name(Stage::kOther), "stage:Other");
}

TEST(ScopedStage, RecordsElapsedTime) {
  StageTimer t;
  {
    obs::ScopedStage s(t, Stage::kPair);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
    (void)x;
  }
  EXPECT_GT(t.get(Stage::kPair), 0.0);
}

TEST(WallTimer, MonotoneNonNegative) {
  WallTimer w;
  const double a = w.seconds();
  const double b = w.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.reset();
  EXPECT_GE(w.seconds(), 0.0);
}

}  // namespace
}  // namespace lmp::util
