#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/stats.h"

namespace lmp::util {
namespace {

TEST(Percentile, MedianOfOddSet) {
  const std::vector<double> xs{5, 1, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Percentile, EndsClamp) {
  const std::vector<double> xs{4, 2, 9};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 9.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, SingleSampleIsEveryQuantile) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 42.0);
}

TEST(Percentile, OutOfRangePThrows) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(percentile(xs, -0.5), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 100.5), std::invalid_argument);
}

TEST(Percentile, NanInputsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> with_nan{1.0, nan, 3.0};
  EXPECT_THROW(percentile(with_nan, 50), std::invalid_argument);
  const std::vector<double> ok{1.0, 3.0};
  EXPECT_THROW(percentile(ok, nan), std::invalid_argument);
}

TEST(Mean, Basic) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(MaxRelDeviation, ZeroForIdentical) {
  const std::vector<double> a{1, -2, 3};
  EXPECT_DOUBLE_EQ(max_rel_deviation(a, a), 0.0);
}

TEST(MaxRelDeviation, DetectsWorstPair) {
  const std::vector<double> a{1.0, 100.0};
  const std::vector<double> b{1.1, 100.0};
  EXPECT_NEAR(max_rel_deviation(a, b), 0.1 / 1.1, 1e-12);
}

TEST(MaxRelDeviation, MismatchedLengthsThrow) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(max_rel_deviation(a, b), std::invalid_argument);
}

TEST(RegressionSlope, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};
  EXPECT_NEAR(regression_slope(x, y), 2.0, 1e-12);
}

TEST(RegressionSlope, ConstantXThrows) {
  const std::vector<double> x{2, 2};
  const std::vector<double> y{1, 5};
  EXPECT_THROW(regression_slope(x, y), std::invalid_argument);
}

TEST(RegressionSlope, TooFewPointsThrows) {
  const std::vector<double> x{1};
  const std::vector<double> y{1};
  EXPECT_THROW(regression_slope(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace lmp::util
