#pragma once

#include <algorithm>
#include <span>
#include <vector>

namespace lmp::md {

/// Natural cubic spline over a *uniform* grid — the interpolation engine
/// behind the tabulated EAM functionals (LAMMPS interpolates funcfl
/// tables the same way, with uniform dr/drho spacing).
///
/// The lookup is split in two so that tables on one grid can share it:
/// segment() locates the knot interval once, eval_at() interpolates any
/// spline on the same grid there. Both are inline — they are the EAM
/// per-pair hot path.
class UniformSpline {
 public:
  UniformSpline() = default;

  /// Build from samples y[i] = f(x0 + i*dx). Needs >= 3 points.
  UniformSpline(double x0, double dx, std::span<const double> y);

  double x_min() const { return x0_; }
  double x_max() const { return x_max_; }

  /// True when `o` has this spline's grid (origin, spacing, knot count),
  /// so a segment() of one is valid for eval_at() of the other.
  bool same_grid(const UniformSpline& o) const {
    return x0_ == o.x0_ && dx_ == o.dx_ && n_ == o.n_;
  }

  /// Knot interval of x, clamped to the table ends (matching LAMMPS'
  /// behaviour of clamping rho beyond the tabulated range), and the
  /// fractional position `t` in [0, 1] inside it.
  int segment(double x, double& t) const {
    const double xc = std::clamp(x, x0_, x_max_);
    int i = static_cast<int>((xc - x0_) / dx_);
    i = std::clamp(i, 0, n_ - 2);
    t = (xc - (x0_ + dx_ * i)) / dx_;
    return i;
  }

  /// Value and derivative at position `t` of interval `i` (from segment()
  /// of this spline or of one with the same grid).
  void eval_at(int i, double t, double& val, double& deriv) const {
    const Knot& k0 = knots_[static_cast<std::size_t>(i)];
    const Knot& k1 = knots_[static_cast<std::size_t>(i) + 1];
    const double a = 1.0 - t;
    val = a * k0.y + t * k1.y +
          h2_6_ * ((a * a * a - a) * k0.m + (t * t * t - t) * k1.m);
    deriv = k0.slope +
            h_6_ * ((3.0 * t * t - 1.0) * k1.m - (3.0 * a * a - 1.0) * k0.m);
  }

  /// Value and derivative in one lookup.
  void eval(double x, double& val, double& deriv) const {
    double t;
    const int i = segment(x, t);
    eval_at(i, t, val, deriv);
  }

  /// Interpolated value, clamped like segment().
  double value(double x) const {
    double v, dv;
    eval(x, v, dv);
    return v;
  }

  /// Interpolated derivative, clamped likewise.
  double derivative(double x) const;

 private:
  /// One knot's data, interleaved so a lookup touches two adjacent
  /// records instead of three arrays.
  struct Knot {
    double y;      ///< sample
    double m;      ///< second derivative
    double slope;  ///< (y[i+1] - y[i]) / dx; 0 at the last knot
  };

  double x0_ = 0.0;
  double dx_ = 1.0;
  int n_ = 0;
  double x_max_ = 0.0;  ///< x0 + dx*(n-1)
  double h2_6_ = 0.0;   ///< dx*dx/6
  double h_6_ = 0.0;    ///< dx/6
  std::vector<Knot> knots_;
};

}  // namespace lmp::md
