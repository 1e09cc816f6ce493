// Self-test of the benchmark's statistics helpers (bench/stats.hpp).
// Runs before every benchmark run (perfbench/run.py); exits nonzero on the
// first failed check.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_selftest: FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

template <class Fn>
bool throws(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Quantiles interpolate linearly between order statistics, like Python's
  // statistics.quantiles(method="inclusive").
  check(near(median({3.0, 1.0, 2.0}), 2.0), "median of an odd set");
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of an even set");
  check(near(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0), "first quartile");
  check(near(quantile({7.0}, 0.9), 7.0), "quantile of one sample");
  check(throws([] { quantile({}, 0.5); }), "empty set throws");
  check(throws([] { quantile({1.0}, 1.5); }), "q outside [0, 1] throws");

  // A tail percentile needs ten samples beyond it: p90 from 100 samples, not 99.
  check(tail_supported(100, 0.9), "p90 supported at n=100");
  check(!tail_supported(99, 0.9), "p90 refused at n=99");
  check(tail_supported(1000, 0.99), "p99 supported at n=1000");
  check(!tail_supported(999, 0.99), "p99 refused at n=999");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(tail_percentile(hundred, 0.9).has_value(), "p90 reported at n=100");
  check(near(*tail_percentile(hundred, 0.9), 90.1), "p90 value at n=100");
  hundred.pop_back();
  check(!tail_percentile(hundred, 0.9).has_value(), "p90 withheld at n=99");

  // Failures count against attempts; a ratio keeps its base.
  Attempts attempts;
  for (int i = 0; i < 9; ++i) attempts.record(true);
  attempts.record(false);
  check(attempts.attempted == 10 && attempts.failed == 1, "attempts are counted");
  const Ratio failed = attempts.failed_ratio();
  check(near(failed.value(), 0.1) && failed.denominator == 10.0, "failed ratio keeps its base");
  check(Ratio{}.value() == 0.0, "a ratio over an empty base is 0");

  Samples samples;
  samples.add(2.0);
  samples.add(4.0);
  check(samples.count() == 2 && near(samples.median(), 3.0), "samples carry their count");

  if (g_failures == 0) std::fprintf(stderr, "stats_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
