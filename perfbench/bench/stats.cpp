#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample set");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

bool tail_supported(std::size_t n, double q) {
  // Small epsilon: 100 * (1 - 0.9) is 9.999999999999998 in binary floating point.
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >= kTailSamples;
}

std::optional<double> tail_percentile(const std::vector<double>& values, double q) {
  if (!tail_supported(values.size(), q)) return std::nullopt;
  return quantile(values, q);
}

}  // namespace perfbench
