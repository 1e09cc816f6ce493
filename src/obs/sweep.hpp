// Sweep-level statistics: order-free summaries of a sample set and the
// tornado sensitivity report core::mc_sweep folds its replicates into.
//
// Per-scenario metrics of a sweep come from one obs::TimelineSink per
// scenario (a sink is driven by exactly one session thread), aggregated
// when the scenario finishes.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hpp"

namespace tir::obs {

/// Order-free summary of a sample set: moments, extremes, interpolated
/// quantiles (type-7, the numpy/R default) and a normal-approximation 95%
/// confidence interval on the mean.  summarize() sorts a copy, so the result
/// is bit-identical no matter what order the samples arrived in — which is
/// what lets core::mc_sweep promise identical aggregates at any --jobs.
struct DistributionSummary {
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

/// Summarize `samples` (taken by value: sorted internally).  n==0 yields the
/// all-zero summary.
DistributionSummary summarize(std::vector<double> samples);

/// Add `n` and the 11 moment and quantile fields of `s` to `object`, in
/// declaration order (%.17g, so a summary round-trips exactly).
void add_summary_fields(Json& object, const DistributionSummary& s);

/// One bar of a tornado diagram: how much the output metric swings when a
/// single parameter is perturbed with all the others pinned to nominal.
struct TornadoEntry {
  std::string parameter;        ///< platform::perturbation_parameters() name
  DistributionSummary metric;   ///< output distribution, this parameter alone
  double swing = 0.0;           ///< metric.max - metric.min
};

/// Per-parameter sensitivity report, entries sorted by swing, widest first
/// (ties broken by parameter name so the order is deterministic).
struct TornadoReport {
  double baseline = 0.0;  ///< output metric of the unperturbed platform
  std::vector<TornadoEntry> entries;
};

/// Assemble a report from per-parameter sample sets and sort the bars.
TornadoReport tornado(double baseline,
                      const std::vector<std::pair<std::string, std::vector<double>>>&
                          per_parameter_samples);

}  // namespace tir::obs
