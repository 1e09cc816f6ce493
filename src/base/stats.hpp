// Descriptive statistics: the one summary of a sample set.
//
// The paper's Figures 1/2/4/5 plot *distributions across processes* of
// relative differences (exp/), and core::mc_sweep reports distributions of
// makespans across Monte Carlo replicates; both summarize through here.
#pragma once

#include <cstddef>
#include <vector>

namespace tir::stats {

/// Order-free summary of a sample set: moments, extremes, interpolated
/// quantiles (type-7, the numpy/R default) and a normal-approximation 95%
/// confidence interval on the mean.  summarize() sorts a copy, so the result
/// is bit-identical no matter what order the samples arrived in — which is
/// what lets core::mc_sweep promise identical aggregates at any --jobs.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample stddev (n-1); 0 when n < 2
  double min = 0.0;
  double max = 0.0;
  double p5 = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double ci95_lo = 0.0;  ///< mean ± 1.96·stddev/√n
  double ci95_hi = 0.0;
};

/// Summarize `values` (taken by value: sorted internally).  Throws
/// tir::Error on empty input.
Summary summarize(std::vector<double> values);

/// Type-7 quantile (linear interpolation), q in [0,1]. Input must be sorted.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// (simulated - reference) / reference, in percent.
double relative_error_pct(double simulated, double reference);

}  // namespace tir::stats
