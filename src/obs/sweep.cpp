#include "obs/sweep.hpp"

#include <algorithm>
#include <cmath>

namespace tir::obs {

namespace {

/// Type-7 interpolated quantile of an already-sorted sample vector.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  if (n == 1) return sorted[0];
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

DistributionSummary summarize(std::vector<double> samples) {
  DistributionSummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n >= 2) {
    double ss = 0.0;
    for (const double v : samples) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
  }
  s.min = samples.front();
  s.max = samples.back();
  s.p5 = quantile_sorted(samples, 0.05);
  s.p25 = quantile_sorted(samples, 0.25);
  s.p50 = quantile_sorted(samples, 0.50);
  s.p75 = quantile_sorted(samples, 0.75);
  s.p95 = quantile_sorted(samples, 0.95);
  const double half = 1.96 * s.stddev / std::sqrt(static_cast<double>(s.n));
  s.ci95_lo = s.mean - half;
  s.ci95_hi = s.mean + half;
  return s;
}

void add_summary_fields(Json& object, const DistributionSummary& s) {
  object.set("n", s.n);
  const std::pair<const char*, double> fields[] = {
      {"mean", s.mean}, {"stddev", s.stddev}, {"min", s.min}, {"max", s.max},
      {"p5", s.p5},     {"p25", s.p25},       {"p50", s.p50}, {"p75", s.p75},
      {"p95", s.p95},   {"ci95_lo", s.ci95_lo}, {"ci95_hi", s.ci95_hi}};
  for (const auto& [name, value] : fields) object.set(name, value);
}

TornadoReport tornado(
    double baseline,
    const std::vector<std::pair<std::string, std::vector<double>>>& per_parameter_samples) {
  TornadoReport report;
  report.baseline = baseline;
  report.entries.reserve(per_parameter_samples.size());
  for (const auto& [parameter, samples] : per_parameter_samples) {
    TornadoEntry entry;
    entry.parameter = parameter;
    entry.metric = summarize(samples);
    entry.swing = entry.metric.max - entry.metric.min;
    report.entries.push_back(std::move(entry));
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const TornadoEntry& a, const TornadoEntry& b) {
              if (a.swing != b.swing) return a.swing > b.swing;
              return a.parameter < b.parameter;
            });
  return report;
}

}  // namespace tir::obs
