#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace lmp::util {

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  if (std::isnan(p) || p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p outside [0, 100]");
  }
  std::vector<double> sorted(xs.begin(), xs.end());
  for (double x : sorted) {
    // NaN breaks the sort's strict weak ordering; the order statistics of
    // a sample containing NaN are meaningless anyway.
    if (std::isnan(x)) throw std::invalid_argument("percentile: NaN sample");
  }
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double max_rel_deviation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("series length mismatch");
  constexpr double kEps = 1e-300;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::fabs(a[i]), std::fabs(b[i]), kEps});
    worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
  }
  return worst;
}

double regression_slope(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("regression needs >=2 paired samples");
  }
  const double mx = mean(x);
  const double my = mean(y);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    den += (x[i] - mx) * (x[i] - mx);
  }
  if (den == 0.0) throw std::invalid_argument("regression on constant x");
  return num / den;
}

}  // namespace lmp::util
