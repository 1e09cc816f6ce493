// Parameterized end-to-end properties: across an instance grid, acquired
// traces replay deterministically, predictions stay positive and finite,
// the eager-threshold sweep switches protocols consistently, and
// synchronizing collectives hold their barrier semantics at any width.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/run.hpp"
#include "core/replay.hpp"
#include "exp/experiments.hpp"
#include "platform/clusters.hpp"
#include "smpi/world.hpp"

namespace tir::core {
namespace {

// ---------- LU instance grid through the full acquisition+replay path ----

class LuGridReplay : public ::testing::TestWithParam<std::tuple<char, int>> {};

TEST_P(LuGridReplay, AcquiredTraceReplaysOnBothBackends) {
  const auto [cls, np] = GetParam();
  const exp::ClusterSetup bd = exp::bordereau_setup();
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = np;
  lu.iterations_override = 2;

  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::MachineModel machine(bd.truth);
  const apps::RunResult run = apps::run_lu(lu, bd.platform, machine, acq);
  ASSERT_NO_THROW(tit::validate(run.trace));

  ReplayConfig cfg;
  cfg.rates = {bd.truth.rate_in_cache};
  const double t_smpi = replay(Backend::Smpi, run.trace, bd.platform, cfg).simulated_time;
  const double t_msg = replay(Backend::Msg, run.trace, bd.platform, cfg).simulated_time;
  EXPECT_GT(t_smpi, 0.0);
  EXPECT_TRUE(std::isfinite(t_smpi));
  EXPECT_GT(t_msg, 0.0);
  // Determinism of the whole chain.
  EXPECT_DOUBLE_EQ(t_smpi, replay(Backend::Smpi, run.trace, bd.platform, cfg).simulated_time);
  // The old back-end can never be *faster* than the new one on LU traces:
  // it starts every transfer at match time and shares the same compute.
  EXPECT_GE(t_msg, t_smpi * 0.99);
}

INSTANTIATE_TEST_SUITE_P(Instances, LuGridReplay,
                         ::testing::Combine(::testing::Values('W', 'A', 'B'),
                                            ::testing::Values(1, 4, 8, 16)));

// ---------- eager-threshold sweep ----------------------------------------

class EagerThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(EagerThresholdSweep, ProtocolSwitchIsConsistent) {
  const double threshold = GetParam();
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 2;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_flat_cluster(p, spec);

  for (const double bytes : {threshold / 2.0, threshold, threshold * 2.0}) {
    sim::Engine eng(p);
    smpi::Config cfg;
    cfg.piecewise = smpi::PiecewiseModel();
    cfg.eager_threshold = threshold;
    smpi::World w(eng, cfg, {0, 1}, {0, 0});
    double send_done = -1.0;
    eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
      co_await w.send(ctx, 0, 1, bytes);
      send_done = ctx.now();
    });
    eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
      co_await ctx.sleep(1.0);
      co_await w.recv(ctx, 1, 0, bytes);
    });
    eng.run();
    if (bytes < threshold) {
      EXPECT_DOUBLE_EQ(send_done, 0.0) << "eager send must detach (" << bytes << ")";
    } else {
      EXPECT_GT(send_done, 1.0) << "rendezvous send must wait for the recv (" << bytes << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, EagerThresholdSweep,
                         ::testing::Values(1024.0, 8192.0, 65536.0, 262144.0));

// ---------- synchronizing collectives at any width ------------------------

class CollectiveWidth : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWidth, AllreduceIsAFullSynchronization) {
  const int n = GetParam();
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 2e-5;
  platform::build_flat_cluster(p, spec);
  sim::Engine eng(p);
  smpi::Config cfg;
  cfg.piecewise = smpi::PiecewiseModel();
  smpi::World w(eng, cfg, platform::place_ranks(p, n),
                std::vector<int>(static_cast<std::size_t>(n), 0));
  const double last_arrival = 0.01 * (n - 1);
  std::vector<double> done(static_cast<std::size_t>(n));
  w.spawn_ranks([&](sim::Ctx& ctx, int me) -> sim::Coro {
    co_await ctx.sleep(0.01 * me);
    co_await w.allreduce(ctx, me, 64, 0.0);
    done[static_cast<std::size_t>(me)] = ctx.now();
  });
  eng.run();
  for (const double t : done) EXPECT_GE(t, last_arrival - 1e-12);
}

TEST_P(CollectiveWidth, BarrierCostGrowsLogarithmically) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 2e-5;
  platform::build_flat_cluster(p, spec);
  sim::Engine eng(p);
  smpi::Config cfg;
  cfg.piecewise = smpi::PiecewiseModel();
  smpi::World w(eng, cfg, platform::place_ranks(p, n),
                std::vector<int>(static_cast<std::size_t>(n), 0));
  w.spawn_ranks([&](sim::Ctx& ctx, int me) -> sim::Coro { co_await w.barrier(ctx, me); });
  eng.run();
  const double hop = 2 * 2e-5 + 1.0 / 1.25e8;
  const int rounds = static_cast<int>(std::ceil(std::log2(n)));
  EXPECT_GE(eng.now(), rounds * hop * 0.9);
  EXPECT_LE(eng.now(), rounds * hop * 3.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, CollectiveWidth,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 33, 64));

// ---------- piecewise model sweep -----------------------------------------

class PiecewiseProperty : public ::testing::TestWithParam<double> {};

TEST_P(PiecewiseProperty, ReferenceFactorsAreSane) {
  const double size = GetParam();
  const smpi::PiecewiseModel m = smpi::reference_piecewise();
  EXPECT_GE(m.lat_factor(size), 1.0);   // protocol latency never beats physics
  EXPECT_LE(m.bw_factor(size), 1.0);    // effective bandwidth below wire speed
  EXPECT_GT(m.bw_factor(size), 0.0);
  // Larger messages always achieve at least the efficiency of smaller ones.
  EXPECT_LE(m.lat_factor(size * 4.0), m.lat_factor(size));
  EXPECT_GE(m.bw_factor(size * 4.0), m.bw_factor(size));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PiecewiseProperty,
                         ::testing::Values(1.0, 100.0, 1419.0, 1420.0, 10000.0, 65535.0,
                                           65536.0, 1e6, 1e8));

}  // namespace
}  // namespace tir::core
