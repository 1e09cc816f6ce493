// Machine model and acquisition runner: cache regimes, noise determinism,
// instrumentation overheads materializing as wall-time, trace emission.
#include <gtest/gtest.h>

#include <numeric>

#include "apps/cg.hpp"
#include "apps/ep.hpp"
#include "apps/jacobi.hpp"
#include "apps/machine.hpp"
#include "apps/run.hpp"

namespace tir::apps {
namespace {

LuConfig small_lu(int np = 4, int iters = 2) {
  LuConfig cfg;
  cfg.cls = nas_class('A');
  cfg.nprocs = np;
  cfg.iterations_override = iters;
  return cfg;
}

TEST(MachineModel, InCacheRateIsFlat) {
  const MachineModel m(platform::bordereau_truth(), 0.0);
  const double l2 = m.truth().l2_bytes;
  EXPECT_DOUBLE_EQ(m.app_rate(l2 * 0.1), m.truth().rate_in_cache);
  EXPECT_DOUBLE_EQ(m.app_rate(l2), m.truth().rate_in_cache);
}

TEST(MachineModel, OutOfCacheSaturates) {
  const MachineModel m(platform::bordereau_truth(), 0.0);
  const double l2 = m.truth().l2_bytes;
  EXPECT_DOUBLE_EQ(m.app_rate(l2 * 10.0), m.truth().rate_out_of_cache);
  EXPECT_DOUBLE_EQ(m.app_rate(l2 * 1.35), m.truth().rate_out_of_cache);
}

TEST(MachineModel, RampIsMonotone) {
  const MachineModel m(platform::bordereau_truth(), 0.0);
  const double l2 = m.truth().l2_bytes;
  double prev = m.app_rate(l2);
  for (double f = 1.05; f <= 1.4; f += 0.05) {
    const double r = m.app_rate(l2 * f);
    EXPECT_LE(r, prev);
    prev = r;
  }
}

TEST(MachineModel, NoiseDeterministicAndBounded) {
  const MachineModel m(platform::bordereau_truth(), 0.02, 7);
  EXPECT_DOUBLE_EQ(m.noise_factor(3, 11), m.noise_factor(3, 11));
  EXPECT_NE(m.noise_factor(3, 11), m.noise_factor(4, 11));
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_GE(m.noise_factor(1, i), 0.98);
    EXPECT_LE(m.noise_factor(1, i), 1.02);
  }
}

TEST(RunLu, CompletesAndIsDeterministic) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  const RunResult a = run_lu(small_lu(), p, m, acq);
  const RunResult b = run_lu(small_lu(), p, m, acq);
  EXPECT_GT(a.wall_time, 0.0);
  EXPECT_DOUBLE_EQ(a.wall_time, b.wall_time);
}

TEST(RunLu, InstrumentationSlowsTheRunDown) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::None;
  const double orig = run_lu(small_lu(), p, m, acq).wall_time;
  acq.granularity = hwc::Granularity::Fine;
  const double fine = run_lu(small_lu(), p, m, acq).wall_time;
  acq.granularity = hwc::Granularity::Minimal;
  const double minimal = run_lu(small_lu(), p, m, acq).wall_time;
  EXPECT_GT(fine, orig);
  EXPECT_GT(minimal, orig);
  EXPECT_LT(minimal - orig, (fine - orig) * 0.8);  // the paper's fix helps
}

TEST(RunLu, O3IsFasterThanO0) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  acq.compiler = hwc::kO0;
  const double o0 = run_lu(small_lu(), p, m, acq).wall_time;
  acq.compiler = hwc::kO3;
  const double o3 = run_lu(small_lu(), p, m, acq).wall_time;
  EXPECT_LT(o3, o0);
}

TEST(RunLu, CounterTotalsTrackGranularity) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Coarse;
  const RunResult coarse = run_lu(small_lu(), p, m, acq);
  acq.granularity = hwc::Granularity::Fine;
  const RunResult fine = run_lu(small_lu(), p, m, acq);
  ASSERT_EQ(coarse.counter_totals.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_GT(fine.counter_totals[i], coarse.counter_totals[i] * 1.05);
    EXPECT_LT(fine.counter_totals[i], coarse.counter_totals[i] * 1.35);
  }
}

TEST(RunLu, EmittedTraceIsBalancedAndComplete) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.emit_trace = true;
  const RunResult run = run_lu(small_lu(), p, m, acq);
  ASSERT_EQ(run.trace.nprocs(), 4);
  EXPECT_NO_THROW(tit::validate(run.trace));
  const tit::TraceStats s = tit::stats(run.trace);
  EXPECT_GT(s.p2p_messages, 0u);
  EXPECT_GT(s.compute_instructions, 0.0);
}

// run_lu sizes each rank's trace to its program's event count up front, so
// emission never regrows (and never over-allocates) an action vector.
TEST(RunLu, EmittedTraceIsSizedExactly) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.emit_trace = true;
  const LuConfig lu = small_lu(8, 3);
  const RunResult run = run_lu(lu, p, m, acq);
  for (int r = 0; r < lu.nprocs; ++r) {
    EXPECT_EQ(run.trace.actions(r).size(), LuProgram(lu, r).size()) << r;
    EXPECT_EQ(run.trace.actions(r).capacity(), run.trace.actions(r).size()) << r;
  }
}

TEST(RunLu, TraceComputeVolumesCarryThePerturbation) {
  // The inflated counter readings must land in the trace, since that is the
  // coupling the paper worries about (issue #2 feeding the replay).
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  acq.emit_trace = true;
  acq.granularity = hwc::Granularity::Coarse;
  const tit::TraceStats coarse = tit::stats(run_lu(small_lu(), p, m, acq).trace);
  acq.granularity = hwc::Granularity::Fine;
  const tit::TraceStats fine = tit::stats(run_lu(small_lu(), p, m, acq).trace);
  EXPECT_GT(fine.compute_instructions, coarse.compute_instructions * 1.05);
}

TEST(RunLu, MoreProcessesRunFaster) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  const double t4 = run_lu(small_lu(4), p, m, acq).wall_time;
  const double t16 = run_lu(small_lu(16), p, m, acq).wall_time;
  EXPECT_LT(t16, t4);
}

TEST(RunLu, ComputeSecondsExcludeOverheads) {
  const platform::Platform p = platform::bordereau();
  const MachineModel m(platform::bordereau_truth());
  AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Fine;
  const RunResult run = run_lu(small_lu(), p, m, acq);
  const double total_compute =
      std::accumulate(run.compute_seconds.begin(), run.compute_seconds.end(), 0.0);
  EXPECT_GT(total_compute, 0.0);
  // Per-rank compute time can't exceed the makespan.
  for (const double s : run.compute_seconds) EXPECT_LE(s, run.wall_time * 1.0000001);
}

TEST(EpTrace, ComputeDominatedAndValid) {
  const tit::Trace t = ep_trace(EpConfig{8, 8e10, 16});
  EXPECT_NO_THROW(tit::validate(t));
  const tit::TraceStats s = tit::stats(t);
  EXPECT_EQ(s.p2p_messages, 0u);
  EXPECT_NEAR(s.compute_instructions, 8e10, 1.0);
  EXPECT_EQ(s.collectives, 8u);
}

TEST(CgTrace, AllreduceHeavyAndValid) {
  const tit::Trace t = cg_trace(CgConfig{8, 10, 1e8, 1e5, 28000.0});
  EXPECT_NO_THROW(tit::validate(t));
  const tit::TraceStats s = tit::stats(t);
  // Two allreduces per iteration per rank, plus the initial bcast.
  EXPECT_EQ(s.collectives, 8u * (2u * 10u + 1u));
  EXPECT_EQ(s.p2p_messages, 8u * 10u);  // ring exchange, all eager
  EXPECT_DOUBLE_EQ(s.eager_messages, static_cast<double>(s.p2p_messages));
}

TEST(CgTrace, SingleRankHasNoMessages) {
  const tit::Trace t = cg_trace(CgConfig{1, 5, 1e8, 1e5, 28000.0});
  EXPECT_EQ(tit::stats(t).p2p_messages, 0u);
  EXPECT_NO_THROW(tit::validate(t));
}

TEST(JacobiTrace, BalancedHalosAndPeriodicAllreduce) {
  const tit::Trace t = jacobi_trace(JacobiConfig{4, 256, 256, 20, 10.0, 5});
  EXPECT_NO_THROW(tit::validate(t));
  const tit::TraceStats s = tit::stats(t);
  // 20 iterations, interior ranks exchange 2 halos each way.
  EXPECT_GT(s.p2p_messages, 0u);
  EXPECT_EQ(s.collectives, 4u * (20u / 5u + 1u));  // 4 allreduces + 1 bcast per rank
}

}  // namespace
}  // namespace tir::apps
