#include "base/stats.hpp"

#include <gtest/gtest.h>

#include "base/error.hpp"

namespace tir::stats {
namespace {

TEST(Stats, SummaryOfSingleValue) {
  const Summary s = summarize({7.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.p50, 7.0);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SummaryFiveNumber) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Stats, SummaryUnsortedInput) {
  const Summary s = summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 10.0);
}

TEST(Stats, StddevSample) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(s.stddev, 2.13809, 1e-4);
}

TEST(Stats, EmptySummaryThrows) { EXPECT_THROW(summarize({}), Error); }

TEST(Stats, RelativeErrorPct) {
  EXPECT_DOUBLE_EQ(relative_error_pct(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(relative_error_pct(90.0, 100.0), -10.0);
}

TEST(Stats, RelativeErrorAgainstZeroThrows) {
  EXPECT_THROW(relative_error_pct(1.0, 0.0), InternalError);
}

}  // namespace
}  // namespace tir::stats
