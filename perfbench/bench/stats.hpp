// Statistics helpers for the benchmark's figures.
//
// Rules they enforce (perfbench/README.md, "Reading the numbers"):
//   * every timing carries its sample count (Samples::count);
//   * a tail percentile exists only when at least ten samples lie beyond it
//     (tail_percentile returns nullopt otherwise);
//   * failures count against attempts (Attempts);
//   * every ratio carries its base (Ratio keeps numerator and denominator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie strictly beyond a reported tail
/// percentile.
inline constexpr double kTailSamples = 10.0;

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample set.
/// Throws std::invalid_argument on an empty set or q outside [0, 1].
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// True when a sample set of size n supports the q-th percentile: at least
/// kTailSamples samples lie beyond it, i.e. n * (1 - q) >= kTailSamples.
bool tail_supported(std::size_t n, double q);

/// The q-th percentile, or nullopt when the set is too small for it.
std::optional<double> tail_percentile(const std::vector<double>& values, double q);

/// A set of timings (or any repeated measurement) with its sample count.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t count() const { return values.size(); }
  double median() const { return quantile(values, 0.5); }
};

/// A ratio that keeps its base.  value() of an empty base is 0.
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;

  double value() const { return denominator == 0.0 ? 0.0 : numerator / denominator; }
};

/// Predictions attempted and failed.  A failure is an error, a rejection
/// after retries ran out, or a result that fails its output check.
struct Attempts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  Ratio failed_ratio() const {
    return {static_cast<double>(failed), static_cast<double>(attempted)};
  }
};

}  // namespace perfbench
