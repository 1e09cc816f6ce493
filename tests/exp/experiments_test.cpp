// Experiment drivers: counter comparison harness and scaling helpers.
#include "exp/experiments.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace tir::exp {
namespace {

TEST(Experiments, ClusterSetupsLoad) {
  EXPECT_EQ(bordereau_setup().platform.host_count(), 93u);
  EXPECT_EQ(graphene_setup().platform.host_count(), 144u);
  EXPECT_EQ(bordereau_setup().name, "bordereau");
}

TEST(Experiments, BenchIterationsEnvOverride) {
  unsetenv("TIR_ITERS");
  EXPECT_EQ(bench_iterations(12), 12);
  setenv("TIR_ITERS", "7", 1);
  EXPECT_EQ(bench_iterations(12), 7);
  setenv("TIR_ITERS", "junk", 1);
  EXPECT_EQ(bench_iterations(12), 12);
  unsetenv("TIR_ITERS");
}

TEST(Experiments, ScaleToFull) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class('B');  // 250 iterations
  lu.iterations_override = 10;
  EXPECT_DOUBLE_EQ(scale_to_full(4.0, lu), 100.0);
}

TEST(Experiments, CompareCountersFineExceedsMinimal) {
  const ClusterSetup bd = bordereau_setup();
  apps::LuConfig lu;
  lu.cls = apps::nas_class('A');
  lu.nprocs = 4;
  const CounterComparison fine =
      compare_counters(lu, bd, hwc::Granularity::Fine, hwc::kO0, 1, 2);
  const CounterComparison minimal =
      compare_counters(lu, bd, hwc::Granularity::Minimal, hwc::kO3, 1, 2);
  ASSERT_EQ(fine.rel_diff_pct.size(), 4u);
  EXPECT_GT(fine.summary.p50, 8.0);     // paper Fig 1: ~10-13%
  EXPECT_LT(fine.summary.p50, 20.0);
  EXPECT_LT(minimal.summary.p50, 3.0);  // paper Fig 4: mostly < 6%
  EXPECT_GE(minimal.summary.min, 0.0);
}

TEST(Experiments, CompareCountersDeterministicPerSeed) {
  const ClusterSetup bd = bordereau_setup();
  apps::LuConfig lu;
  lu.cls = apps::nas_class('A');
  lu.nprocs = 4;
  const auto a = compare_counters(lu, bd, hwc::Granularity::Fine, hwc::kO0, 1, 2, 42);
  const auto b = compare_counters(lu, bd, hwc::Granularity::Fine, hwc::kO0, 1, 2, 42);
  EXPECT_EQ(a.rel_diff_pct, b.rel_diff_pct);
}

TEST(Experiments, GrapheneProbesPerturbLessThanBordereau) {
  // Nehalem-class counter reads are cheaper than Opteron-era ones, so the
  // same instance shows a smaller minimal-instrumentation discrepancy on
  // graphene (this is why Figures 4 and 5 print different numbers).
  apps::LuConfig lu;
  lu.cls = apps::nas_class('A');
  lu.nprocs = 4;
  const auto bd = compare_counters(lu, bordereau_setup(), hwc::Granularity::Minimal,
                                   hwc::kO3, 1, 2);
  const auto gr = compare_counters(lu, graphene_setup(), hwc::Granularity::Minimal,
                                   hwc::kO3, 1, 2);
  EXPECT_LT(gr.summary.p50, bd.summary.p50);
}

TEST(Experiments, PrintersDoNotCrash) {
  // Smoke coverage of the formatting paths used by every bench binary.
  print_preamble("test", "Table 0", "nowhere", 3);
  print_overhead_table({{"B-8", 93.05, 98.64, 76.55, 86.27}});
  print_distribution_series({{"B-8", stats::summarize({1.0, 2.0, 3.0})}});
  print_error_series({{"B", 8, 93.0, 90.0, -3.2}});
}

}  // namespace
}  // namespace tir::exp
