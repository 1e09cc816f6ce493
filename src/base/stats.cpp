#include "base/stats.hpp"

#include <algorithm>
#include <cmath>

#include "base/error.hpp"

namespace tir::stats {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  TIR_ASSERT(!sorted.empty());
  TIR_ASSERT(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary summarize(std::vector<double> values) {
  if (values.empty()) throw Error("summarize: empty input");
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = values.size();
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n >= 2) {
    double ss = 0.0;
    for (const double v : values) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
  }
  s.min = values.front();
  s.max = values.back();
  s.p5 = quantile_sorted(values, 0.05);
  s.p25 = quantile_sorted(values, 0.25);
  s.p50 = quantile_sorted(values, 0.50);
  s.p75 = quantile_sorted(values, 0.75);
  s.p95 = quantile_sorted(values, 0.95);
  const double half = 1.96 * s.stddev / std::sqrt(static_cast<double>(s.n));
  s.ci95_lo = s.mean - half;
  s.ci95_hi = s.mean + half;
  return s;
}

double relative_error_pct(double simulated, double reference) {
  TIR_ASSERT(reference != 0.0);
  return 100.0 * (simulated - reference) / reference;
}

}  // namespace tir::stats
