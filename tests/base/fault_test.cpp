// FaultPlan spec parsing, seeded determinism of the per-point streams, and
// the armed/disarmed lifecycle (src/base/fault.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/error.hpp"
#include "base/fault.hpp"

namespace tir::fault {
namespace {

/// Consult `point_name` n times and record which consults fired with what.
std::vector<Kind> consult_pattern(const char* point_name, int n) {
  std::vector<Kind> pattern;
  pattern.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pattern.push_back(point(point_name));
  return pattern;
}

TEST(FaultPlan, ParsesSeedRulesAndMaxFires) {
  const FaultPlan plan =
      FaultPlan::parse("seed=42;svc.net.write=short:0.25;svc.net.read=reset:0.5:7");
  EXPECT_EQ(plan.seed(), 42u);
  ASSERT_EQ(plan.rules().size(), 2u);
  EXPECT_EQ(plan.rules()[0].point, "svc.net.write");
  EXPECT_EQ(plan.rules()[0].kind, Kind::ShortWrite);
  EXPECT_DOUBLE_EQ(plan.rules()[0].probability, 0.25);
  EXPECT_EQ(plan.rules()[0].max_fires, 64u);  // default cap
  EXPECT_EQ(plan.rules()[1].kind, Kind::Reset);
  EXPECT_EQ(plan.rules()[1].max_fires, 7u);

  // The extremes of both integer fields are accepted as written.
  const FaultPlan wide = FaultPlan::parse("seed=18446744073709551615;p=reset:1:4294967295");
  EXPECT_EQ(wide.seed(), 18446744073709551615ull);
  ASSERT_EQ(wide.rules().size(), 1u);
  EXPECT_EQ(wide.rules()[0].max_fires, 4294967295u);
}

TEST(FaultPlan, AcceptsCommaSeparatorsAndWhitespace) {
  const FaultPlan plan = FaultPlan::parse(" seed=3 , a=eintr:1 , b=stall:0 ");
  EXPECT_EQ(plan.seed(), 3u);
  EXPECT_EQ(plan.rules().size(), 2u);
  EXPECT_EQ(plan.rules()[0].kind, Kind::Eintr);
  EXPECT_EQ(plan.rules()[1].kind, Kind::Stall);
}

TEST(FaultPlan, ParsesEveryKindName) {
  const FaultPlan plan = FaultPlan::parse(
      "p=eintr:0.1;p=eagain:0.1;p=short:0.1;p=reset:0.1;p=accept-fail:0.1;"
      "p=stall:0.1;p=alloc-fail:0.1");
  ASSERT_EQ(plan.rules().size(), 7u);
  EXPECT_EQ(plan.rules()[0].kind, Kind::Eintr);
  EXPECT_EQ(plan.rules()[1].kind, Kind::Eagain);
  EXPECT_EQ(plan.rules()[2].kind, Kind::ShortWrite);
  EXPECT_EQ(plan.rules()[3].kind, Kind::Reset);
  EXPECT_EQ(plan.rules()[4].kind, Kind::AcceptFail);
  EXPECT_EQ(plan.rules()[5].kind, Kind::Stall);
  EXPECT_EQ(plan.rules()[6].kind, Kind::AllocFail);
}

TEST(FaultPlan, MalformedSpecsThrowConfigError) {
  EXPECT_THROW(FaultPlan::parse("seed=banana"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.write"), ConfigError);          // no '='
  EXPECT_THROW(FaultPlan::parse("svc.net.write=short"), ConfigError);    // no prob
  EXPECT_THROW(FaultPlan::parse("svc.net.write=tornado:0.5"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.write=short:1.5"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.write=short:-0.1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.write=short:0.5:nope"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("=short:0.5"), ConfigError);             // empty point
  // Every number is parsed whole: no sign wrap, no trailing junk, no hex
  // float, and max_fires must fit its 32 bits.
  EXPECT_THROW(FaultPlan::parse("seed=-1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("seed=12abc"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("seed=18446744073709551616"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.read=reset:0.5x"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.read=reset:0x1p-1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.read=reset:1:3abc"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.read=reset:1:4294967296"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.read=reset:1:0"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("svc.net.read=reset:1:-1"), ConfigError);
}

TEST(FaultPlan, EmptySpecIsAnEmptyPlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.rules().empty());
}

class FaultLifecycle : public ::testing::Test {
 protected:
  void SetUp() override { disarm(); }
  void TearDown() override { disarm(); }
};

TEST_F(FaultLifecycle, DisarmedPointIsNone) {
  EXPECT_FALSE(armed());
  EXPECT_EQ(point("svc.net.write"), Kind::None);
  EXPECT_EQ(fired_total(), 0u);
}

TEST_F(FaultLifecycle, SameSeedReplaysTheSameSchedule) {
  std::vector<Kind> first;
  {
    const ScopedPlan plan("seed=7;p.x=reset:0.3:1000");
    first = consult_pattern("p.x", 200);
  }
  {
    const ScopedPlan plan("seed=7;p.x=reset:0.3:1000");
    EXPECT_EQ(consult_pattern("p.x", 200), first);
  }
  // A different seed produces a different schedule (with overwhelming odds
  // over 200 consults at p=0.3).
  {
    const ScopedPlan plan("seed=8;p.x=reset:0.3:1000");
    EXPECT_NE(consult_pattern("p.x", 200), first);
  }
}

TEST_F(FaultLifecycle, PointStreamsAreIndependent) {
  // Consulting another point must not advance p.x's schedule: interleaved
  // consults of p.y leave p.x's pattern unchanged.
  std::vector<Kind> solo;
  {
    const ScopedPlan plan("seed=11;p.x=short:0.4:1000;p.y=stall:0.4:1000");
    solo = consult_pattern("p.x", 100);
  }
  {
    const ScopedPlan plan("seed=11;p.x=short:0.4:1000;p.y=stall:0.4:1000");
    std::vector<Kind> interleaved;
    for (int i = 0; i < 100; ++i) {
      point("p.y");
      interleaved.push_back(point("p.x"));
    }
    EXPECT_EQ(interleaved, solo);
  }
}

TEST_F(FaultLifecycle, MaxFiresCapsProbabilityOneStorms) {
  const ScopedPlan plan("seed=1;p.x=eintr:1.0:3");
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (point("p.x") == Kind::Eintr) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fired_total(), 3u);
}

TEST_F(FaultLifecycle, ProbabilityZeroNeverFires) {
  const ScopedPlan plan("seed=1;p.x=reset:0.0");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(point("p.x"), Kind::None);
  EXPECT_EQ(fired_total(), 0u);
}

TEST_F(FaultLifecycle, UnknownPointIsUntouched) {
  const ScopedPlan plan("seed=1;p.x=reset:1.0");
  EXPECT_EQ(point("p.other"), Kind::None);
}

TEST_F(FaultLifecycle, RearmingReplacesThePlan) {
  arm(FaultPlan::parse("seed=1;p.x=reset:1.0:1"));
  EXPECT_EQ(point("p.x"), Kind::Reset);
  arm(FaultPlan::parse("seed=1;p.x=stall:1.0:1"));  // fresh counters too
  EXPECT_EQ(point("p.x"), Kind::Stall);
  disarm();
  EXPECT_EQ(point("p.x"), Kind::None);
}

}  // namespace
}  // namespace tir::fault
