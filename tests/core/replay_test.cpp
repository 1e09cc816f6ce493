// Replay engines: correctness of compute pricing, the old/new protocol
// difference on late receivers, collectives, wait handling, old-format
// traces, and determinism.
#include "core/replay.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "apps/cg.hpp"
#include "platform/clusters.hpp"
#include "platform/parse.hpp"

namespace tir::core {
namespace {

platform::Platform cluster(int n = 4) {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);
  return p;
}

ReplayConfig identity_config(double rate = 1e9) {
  ReplayConfig cfg;
  cfg.rates = {rate};
  cfg.mpi.piecewise = smpi::PiecewiseModel();
  return cfg;
}

TEST(Replay, ComputePricedAtCalibratedRate) {
  const tit::Trace t = tit::parse_trace_string("p0 compute 3e9\n", 1);
  const platform::Platform p = cluster(1);
  ReplayConfig cfg = identity_config(1.5e9);
  EXPECT_NEAR(replay(Backend::Smpi, t, p, cfg).simulated_time, 2.0, 1e-9);
  EXPECT_NEAR(replay(Backend::Msg, t, p, cfg).simulated_time, 2.0, 1e-9);
}

// An infinite rate prices every compute at zero seconds; it must never
// become a prediction on either back-end, alone or in a per-rank vector.
TEST(Replay, NonFiniteRateIsAConfigError) {
  const tit::Trace t = tit::parse_trace_string("p0 compute 3e9\np1 compute 3e9\n", 2);
  const platform::Platform p = cluster(2);
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& rates :
       {std::vector<double>{inf}, std::vector<double>{1e9, inf},
        std::vector<double>{std::numeric_limits<double>::quiet_NaN()}}) {
    ReplayConfig cfg = identity_config();
    cfg.rates = rates;
    EXPECT_THROW(replay(Backend::Smpi, t, p, cfg), ConfigError);
    EXPECT_THROW(replay(Backend::Msg, t, p, cfg), ConfigError);
  }
}

// A platform file with a switch and no host must fail rank placement with a
// typed error on both back-ends, not divide by the host count.
TEST(Replay, HostlessPlatformIsAConfigError) {
  const tit::Trace t =
      tit::parse_trace_string("p0 compute 1e9\np0 send p1 8\np1 recv p0 8\n", 2);
  const platform::Platform p = platform::parse_platform_string("switch root\n");
  EXPECT_THROW(replay(Backend::Smpi, t, p, identity_config()), ConfigError);
  EXPECT_THROW(replay(Backend::Msg, t, p, identity_config()), ConfigError);
}

TEST(Replay, PerRankRatesApply)
{
  const tit::Trace t = tit::parse_trace_string("p0 compute 1e9\np1 compute 1e9\n", 2);
  ReplayConfig cfg = identity_config();
  cfg.rates = {1e9, 5e8};  // rank 1 half as fast
  const platform::Platform p = cluster(2);
  EXPECT_NEAR(replay(Backend::Smpi, t, p, cfg).simulated_time, 2.0, 1e-9);
}

TEST(Replay, NewBackendOverlapsEagerWithLateReceiver) {
  // Receiver computes 1s before posting its recv; the 1 KiB message has
  // long arrived (new back-end) but must still pay full network time in the
  // old one. This is the paper's §3.3 in one test.
  const tit::Trace t = tit::parse_trace_string(
      "p0 send p1 1024\n"
      "p1 compute 1e9\n"
      "p1 recv p0 1024\n",
      2);
  const platform::Platform p = cluster(2);
  const ReplayConfig cfg = identity_config();
  const double t_new = replay(Backend::Smpi, t, p, cfg).simulated_time;
  const double t_old = replay(Backend::Msg, t, p, cfg).simulated_time;
  EXPECT_NEAR(t_new, 1.0, 1e-6);  // fully overlapped
  const double net = 2 * 5e-5 + 1024.0 / 1.25e8;
  EXPECT_NEAR(t_old, 1.0 + net, 1e-9);  // transfer starts at match
}

TEST(Replay, BothBackendsAgreeOnRendezvousMessages) {
  // >= 64 KiB: both protocols start at match, so the backends converge.
  const tit::Trace t = tit::parse_trace_string(
      "p0 send p1 1000000\n"
      "p1 recv p0 1000000\n",
      2);
  const platform::Platform p = cluster(2);
  const ReplayConfig cfg = identity_config();
  const double t_new = replay(Backend::Smpi, t, p, cfg).simulated_time;
  const double t_old = replay(Backend::Msg, t, p, cfg).simulated_time;
  EXPECT_NEAR(t_new, t_old, t_old * 0.01);
}

TEST(Replay, OldFormatRecvWithoutSizeWorks) {
  const tit::Trace t = tit::parse_trace_string(
      "p0 send p1 4096\n"
      "p1 recv p0\n",  // old format: no size
      2);
  const platform::Platform p = cluster(2);
  const ReplayConfig cfg = identity_config();
  EXPECT_GT(replay(Backend::Msg, t, p, cfg).simulated_time, 0.0);
  EXPECT_GT(replay(Backend::Smpi, t, p, cfg).simulated_time, 0.0);
}

TEST(Replay, IsendWaitSequence) {
  const tit::Trace t = tit::parse_trace_string(
      "p0 isend p1 100000\n"
      "p0 compute 1e9\n"
      "p0 wait\n"
      "p1 compute 5e8\n"
      "p1 recv p0 100000\n",
      2);
  const platform::Platform p = cluster(2);
  const double sim = replay(Backend::Smpi, t, p, identity_config()).simulated_time;
  // Rendezvous isend overlaps the compute; wait collects the tail.
  EXPECT_GT(sim, 1.0 - 1e-9);
  EXPECT_LT(sim, 1.1);
}

TEST(Replay, WaitWithoutRequestThrowsInNewBackend) {
  const tit::Trace t = tit::parse_trace_string("p0 wait\n", 1);
  const platform::Platform p = cluster(1);
  EXPECT_THROW(replay(Backend::Smpi, t, p, identity_config()), Error);
}

TEST(Replay, WaitallCollectsEverything) {
  const tit::Trace t = tit::parse_trace_string(
      "p0 isend p1 100000\n"
      "p0 isend p1 200000\n"
      "p0 waitall\n"
      "p1 irecv p0 100000\n"
      "p1 irecv p0 200000\n"
      "p1 waitall\n",
      2);
  const platform::Platform p = cluster(2);
  EXPECT_GT(replay(Backend::Smpi, t, p, identity_config()).simulated_time, 0.0);
}

TEST(Replay, CollectivesReplayOnBothBackends) {
  std::string text;
  for (int r = 0; r < 4; ++r) {
    const std::string pr = "p" + std::to_string(r) + " ";
    text += pr + "init\n";
    text += pr + "barrier\n";
    text += pr + "bcast 4096\n";
    text += pr + "reduce 4096 1000\n";
    text += pr + "allreduce 4096 1000\n";
    text += pr + "alltoall 1024 1024\n";
    text += pr + "allgather 1024 1024\n";
    text += pr + "gather 1024\n";
    text += pr + "scatter 1024\n";
    text += pr + "finalize\n";
  }
  const tit::Trace t = tit::parse_trace_string(text, 4);
  const platform::Platform p = cluster(4);
  EXPECT_GT(replay(Backend::Smpi, t, p, identity_config()).simulated_time, 0.0);
  EXPECT_GT(replay(Backend::Msg, t, p, identity_config()).simulated_time, 0.0);
}

TEST(Replay, DeadlockedTraceReportsError) {
  const tit::Trace t = tit::parse_trace_string("p0 recv p1 10\n", 2);
  const platform::Platform p = cluster(2);
  EXPECT_THROW(replay(Backend::Smpi, t, p, identity_config()), SimError);
}

TEST(Replay, DeterministicAcrossRuns) {
  std::string text;
  for (int r = 0; r < 4; ++r) {
    const std::string pr = "p" + std::to_string(r) + " ";
    const std::string peer = "p" + std::to_string((r + 1) % 4);
    text += pr + "compute " + std::to_string(1e8 * (r + 1)) + "\n";
    text += pr + "send " + peer + " 2048\n";
    text += pr + "recv p" + std::to_string((r + 3) % 4) + " 2048\n";
    text += pr + "allreduce 8 100\n";
  }
  const tit::Trace t = tit::parse_trace_string(text, 4);
  const platform::Platform p = cluster(4);
  const ReplayConfig cfg = identity_config();
  EXPECT_DOUBLE_EQ(replay(Backend::Smpi, t, p, cfg).simulated_time,
                   replay(Backend::Smpi, t, p, cfg).simulated_time);
  EXPECT_DOUBLE_EQ(replay(Backend::Msg, t, p, cfg).simulated_time,
                   replay(Backend::Msg, t, p, cfg).simulated_time);
}

TEST(Replay, ActionCountsReported) {
  const tit::Trace t = tit::parse_trace_string(
      "p0 init\np0 compute 10\np0 send p1 8\np0 finalize\n"
      "p1 init\np1 recv p0 8\np1 finalize\n",
      2);
  const platform::Platform p = cluster(2);
  const ReplayResult r = replay(Backend::Smpi, t, p, identity_config());
  EXPECT_EQ(r.actions_replayed, 7u);
  EXPECT_GT(r.engine_steps, 0u);
  EXPECT_GE(r.wall_clock_seconds, 0.0);
}

TEST(Replay, BackendsDivergeOnCollectiveHeavyCg) {
  // CG runs two allreduces per iteration: the old back-end's monolithic
  // model and the new point-to-point algorithms must both complete, and
  // they must genuinely differ (the paper's motivation for replacing
  // "crude simplifications" of collectives).
  // Tiny compute so the collectives dominate the makespan.
  const tit::Trace t = apps::cg_trace(apps::CgConfig{8, 50, 1e6, 1e4, 28000.0});
  const platform::Platform p = cluster(8);
  const ReplayConfig cfg = identity_config();
  const double t_new = replay(Backend::Smpi, t, p, cfg).simulated_time;
  const double t_old = replay(Backend::Msg, t, p, cfg).simulated_time;
  EXPECT_GT(t_new, 0.0);
  EXPECT_GT(t_old, 0.0);
  EXPECT_GT(std::abs(t_old - t_new) / t_new, 0.005);
}

TEST(Replay, PiecewiseModelSlowsSmallMessages) {
  const tit::Trace t = tit::parse_trace_string(
      "p0 send p1 1024\n"
      "p1 recv p0 1024\n",
      2);
  const platform::Platform p = cluster(2);
  ReplayConfig plain = identity_config();
  ReplayConfig corrected = identity_config();
  corrected.mpi.piecewise = smpi::reference_piecewise();
  EXPECT_GT(replay(Backend::Smpi, t, p, corrected).simulated_time,
            replay(Backend::Smpi, t, p, plain).simulated_time);
}

}  // namespace
}  // namespace tir::core
