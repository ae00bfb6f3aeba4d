#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "md/spline.h"

namespace lmp::md {
namespace {

TEST(UniformSpline, ReproducesKnots) {
  const std::vector<double> y{1.0, 4.0, 2.0, 8.0, 5.0};
  const UniformSpline s(0.0, 1.0, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(s.value(static_cast<double>(i)), y[i], 1e-12);
  }
}

TEST(UniformSpline, ExactForLinearFunctions) {
  std::vector<double> y;
  for (int i = 0; i < 8; ++i) y.push_back(3.0 + 2.0 * i);
  const UniformSpline s(0.0, 1.0, y);
  for (double x = 0.0; x <= 7.0; x += 0.13) {
    EXPECT_NEAR(s.value(x), 3.0 + 2.0 * x, 1e-10);
    EXPECT_NEAR(s.derivative(x), 2.0, 1e-10);
  }
}

TEST(UniformSpline, ApproximatesSmoothFunction) {
  const int n = 200;
  const double dx = 2.0 * M_PI / (n - 1);
  std::vector<double> y;
  for (int i = 0; i < n; ++i) y.push_back(std::sin(i * dx));
  const UniformSpline s(0.0, dx, y);
  for (double x = 0.3; x < 2.0 * M_PI - 0.3; x += 0.1) {
    EXPECT_NEAR(s.value(x), std::sin(x), 1e-5);
    EXPECT_NEAR(s.derivative(x), std::cos(x), 1e-3);
  }
}

TEST(UniformSpline, ClampsBeyondTable) {
  const std::vector<double> y{0.0, 1.0, 4.0};
  const UniformSpline s(0.0, 1.0, y);
  EXPECT_NEAR(s.value(-5.0), s.value(0.0), 1e-12);
  EXPECT_NEAR(s.value(99.0), s.value(2.0), 1e-12);
}

TEST(UniformSpline, EvalMatchesValueAndDerivative) {
  const std::vector<double> y{2.0, -1.0, 3.0, 0.5};
  const UniformSpline s(1.0, 0.5, y);
  double v, d;
  s.eval(1.7, v, d);
  EXPECT_DOUBLE_EQ(v, s.value(1.7));
  EXPECT_DOUBLE_EQ(d, s.derivative(1.7));
}

TEST(UniformSpline, DerivativeMatchesFiniteDifference) {
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.1 * i;
    y.push_back(x * x * std::exp(-x));
  }
  const UniformSpline s(0.0, 0.1, y);
  const double h = 1e-6;
  for (double x = 0.5; x < 4.0; x += 0.37) {
    const double fd = (s.value(x + h) - s.value(x - h)) / (2 * h);
    EXPECT_NEAR(s.derivative(x), fd, 1e-5);
  }
}

TEST(UniformSpline, ContinuousAtKnots) {
  const std::vector<double> y{0.0, 3.0, -2.0, 5.0, 1.0};
  const UniformSpline s(0.0, 1.0, y);
  for (double k = 1.0; k <= 3.0; k += 1.0) {
    const double eps = 1e-9;
    EXPECT_NEAR(s.value(k - eps), s.value(k + eps), 1e-7);
    EXPECT_NEAR(s.derivative(k - eps), s.derivative(k + eps), 1e-5);
  }
}

TEST(UniformSpline, InvalidInputsThrow) {
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(UniformSpline(0.0, 1.0, two), std::invalid_argument);
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_THROW(UniformSpline(0.0, 0.0, three), std::invalid_argument);
}

TEST(UniformSpline, RangeAccessors) {
  const std::vector<double> y{1, 2, 3, 4};
  const UniformSpline s(2.0, 0.5, y);
  EXPECT_DOUBLE_EQ(s.x_min(), 2.0);
  EXPECT_DOUBLE_EQ(s.x_max(), 3.5);
}

TEST(UniformSpline, SharedSegmentMatchesEvalBitwise) {
  // The EAM force pass locates one segment and evaluates two splines on
  // the same grid there; each must equal that spline's own eval() bit
  // for bit, on knots, between them and clamped beyond both ends.
  const std::vector<double> ya{2.0, -1.0, 3.0, 0.5, 4.25, -2.0, 1.0};
  const std::vector<double> yb{0.1, 0.7, -0.3, 2.2, 1.9, 0.0, -1.4};
  const UniformSpline a(0.3, 0.7, ya);
  const UniformSpline b(0.3, 0.7, yb);
  ASSERT_TRUE(a.same_grid(b));
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<double> xs{-4.0, 0.0, 0.29, 0.3, 4.5, 4.51, 9.0};
  for (int k = 0; k < 7; ++k) {
    xs.push_back(0.3 + 0.7 * k);               // on a knot
    xs.push_back(0.3 + 0.7 * k + 0.7 / 3.0);  // between knots
  }
  for (const double x : xs) {
    double t;
    const int i = a.segment(x, t);
    for (const UniformSpline* s : {&a, &b}) {
      double v_at, d_at, v, d;
      s->eval_at(i, t, v_at, d_at);
      s->eval(x, v, d);
      EXPECT_EQ(bits(v_at), bits(v)) << "x=" << x;
      EXPECT_EQ(bits(d_at), bits(d)) << "x=" << x;
      EXPECT_EQ(bits(v_at), bits(s->value(x))) << "x=" << x;
      EXPECT_EQ(bits(d_at), bits(s->derivative(x))) << "x=" << x;
    }
  }
  const std::vector<double> yc(8, 1.0);
  EXPECT_FALSE(a.same_grid(UniformSpline(0.3, 0.7, yc)));
  EXPECT_FALSE(a.same_grid(UniformSpline(0.3, 0.5, yb)));
  EXPECT_FALSE(a.same_grid(UniformSpline(0.0, 0.7, yb)));
}

}  // namespace
}  // namespace lmp::md
