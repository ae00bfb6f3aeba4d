#include "md/spline.h"

#include <stdexcept>

namespace lmp::md {

UniformSpline::UniformSpline(double x0, double dx, std::span<const double> y)
    : x0_(x0), dx_(dx), n_(static_cast<int>(y.size())) {
  if (n_ < 3) throw std::invalid_argument("spline needs >= 3 samples");
  if (dx <= 0) throw std::invalid_argument("spline spacing must be > 0");
  x_max_ = x0_ + dx_ * static_cast<double>(n_ - 1);
  h2_6_ = dx_ * dx_ / 6.0;
  h_6_ = dx_ / 6.0;

  // Solve the tridiagonal natural-spline system for second derivatives.
  // Uniform spacing collapses the coefficients to constants.
  std::vector<double> m(static_cast<std::size_t>(n_), 0.0);
  std::vector<double> c(static_cast<std::size_t>(n_), 0.0);  // scratch
  std::vector<double> d(static_cast<std::size_t>(n_), 0.0);
  // Interior equations: m[i-1] + 4 m[i] + m[i+1] = 6 (y[i-1]-2y[i]+y[i+1])/dx^2
  for (int i = 1; i < n_ - 1; ++i) {
    d[static_cast<std::size_t>(i)] =
        6.0 * (y[static_cast<std::size_t>(i - 1)] - 2.0 * y[static_cast<std::size_t>(i)] +
               y[static_cast<std::size_t>(i + 1)]) /
        (dx_ * dx_);
  }
  // Thomas algorithm with natural BCs (m[0] = m[n-1] = 0).
  for (int i = 1; i < n_ - 1; ++i) {
    const double w = 4.0 - (i > 1 ? c[static_cast<std::size_t>(i - 1)] : 0.0);
    c[static_cast<std::size_t>(i)] = 1.0 / w;
    d[static_cast<std::size_t>(i)] =
        (d[static_cast<std::size_t>(i)] - (i > 1 ? d[static_cast<std::size_t>(i - 1)] : 0.0)) / w;
  }
  for (int i = n_ - 2; i >= 1; --i) {
    m[static_cast<std::size_t>(i)] =
        d[static_cast<std::size_t>(i)] -
        c[static_cast<std::size_t>(i)] * m[static_cast<std::size_t>(i + 1)];
  }

  knots_.resize(static_cast<std::size_t>(n_));
  for (std::size_t i = 0; i < knots_.size(); ++i) {
    const double slope = i + 1 < knots_.size() ? (y[i + 1] - y[i]) / dx_ : 0.0;
    knots_[i] = {y[i], m[i], slope};
  }
}

double UniformSpline::derivative(double x) const {
  double v, dv;
  eval(x, v, dv);
  return dv;
}

}  // namespace lmp::md
