#pragma once

#include <cstddef>
#include <span>

namespace lmp::util {

/// Percentile of a sample set (linear interpolation between order stats).
/// `p` must be in [0, 100]; throws std::invalid_argument otherwise, on an
/// empty sample, or when `p` or any sample is NaN. The input span is
/// copied; the original is untouched.
double percentile(std::span<const double> xs, double p);

/// The interpolation behind percentile(), for callers that already hold
/// the samples sorted ascending and want several quantiles from one
/// sort. Unchecked: `sorted` must be non-empty and NaN-free, `p` in
/// [0, 100].
double percentile_sorted(std::span<const double> sorted, double p);

/// Mean of a sample set; 0 for an empty span.
double mean(std::span<const double> xs);

/// Maximum relative deviation |a-b| / max(|a|,|b|,eps) over paired series.
/// Used by accuracy tests comparing reference and optimized trajectories.
double max_rel_deviation(std::span<const double> a, std::span<const double> b);

/// Linear-regression slope of y against x (least squares).
/// Used to check weak-scaling linearity in fig14.
double regression_slope(std::span<const double> x, std::span<const double> y);

}  // namespace lmp::util
