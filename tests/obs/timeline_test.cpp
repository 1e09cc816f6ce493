// Timeline invariants and metrics accounting, on both replay back-ends:
//   * per rank, interval times are monotone non-decreasing;
//   * intervals tile [0, simulated_time] exactly (no gaps, no overlap);
//   * the compute/comm/wait partition sums to simulated_time per rank;
//   * wedged replays still yield a finalized timeline plus diagnoses.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include "apps/jacobi.hpp"
#include "base/error.hpp"
#include "core/replay.hpp"
#include "obs/metrics.hpp"
#include "platform/clusters.hpp"

namespace tir::obs {
namespace {

platform::Platform cluster(int n) {
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

tit::Trace jacobi(int np = 4) {
  apps::JacobiConfig cfg;
  cfg.nprocs = np;
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.iterations = 6;
  cfg.check_every = 3;
  return apps::jacobi_trace(cfg);
}

TimelineSink replay(const tit::Trace& trace, bool use_msg) {
  TimelineSink sink;
  core::ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.sink = &sink;
  const platform::Platform p = cluster(trace.nprocs());
  if (use_msg) {
    core::replay(core::Backend::Msg, trace, p, cfg);
  } else {
    core::replay(core::Backend::Smpi, trace, p, cfg);
  }
  return sink;
}

void check_tiling(const TimelineSink& sink) {
  ASSERT_TRUE(sink.finalized());
  const double T = sink.finalized_time();
  ASSERT_GT(sink.nranks(), 0);
  for (int r = 0; r < sink.nranks(); ++r) {
    const std::vector<Interval>& ivs = sink.intervals(r);
    ASSERT_FALSE(ivs.empty()) << "rank " << r;
    EXPECT_DOUBLE_EQ(ivs.front().begin, 0.0) << "rank " << r;
    EXPECT_DOUBLE_EQ(ivs.back().end, T) << "rank " << r;
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      EXPECT_LE(ivs[i].begin, ivs[i].end) << "rank " << r << " interval " << i;
      if (i > 0) {
        // Exact equality, not near: phase end and next phase begin are the
        // same engine timestamp, recorded twice.  Any gap or overlap is a
        // hook-ordering bug.
        EXPECT_DOUBLE_EQ(ivs[i - 1].end, ivs[i].begin)
            << "rank " << r << " interval " << i;
      }
    }
  }
}

void check_partition(const TimelineSink& sink) {
  const MetricsReport report = aggregate(sink);
  const double T = report.simulated_time;
  ASSERT_EQ(static_cast<int>(report.ranks.size()), sink.nranks());
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const RankMetrics& m = report.ranks[r];
    EXPECT_NEAR(m.compute_seconds() + m.comm_seconds() + m.wait_seconds(), T, 1e-9)
        << "rank " << r;
  }
  EXPECT_NEAR(report.total_compute + report.total_comm + report.total_wait,
              T * static_cast<double>(report.ranks.size()), 1e-9 * report.ranks.size());
}

TEST(Timeline, TilesAndPartitionsSmpi) {
  const TimelineSink sink = replay(jacobi(), /*use_msg=*/false);
  check_tiling(sink);
  check_partition(sink);
}

TEST(Timeline, TilesAndPartitionsMsg) {
  const TimelineSink sink = replay(jacobi(), /*use_msg=*/true);
  check_tiling(sink);
  check_partition(sink);
}

TEST(Timeline, RecordsRankIdentity) {
  const TimelineSink sink = replay(jacobi(2), /*use_msg=*/false);
  ASSERT_EQ(sink.nranks(), 2);
  EXPECT_EQ(sink.rank_name(0), "rank0");
  EXPECT_EQ(sink.rank_name(1), "rank1");
  EXPECT_NE(sink.rank_host(0), platform::kNoHost);
}

TEST(Timeline, SmpiProtocolSplitMatchesThreshold) {
  // One eager (1 KiB) and one rendezvous (1 MiB) message.
  const tit::Trace t = tit::parse_trace_string(
      "p0 send p1 1024\n"
      "p0 send p1 1048576\n"
      "p1 recv p0 1024\n"
      "p1 recv p0 1048576\n",
      2);
  const TimelineSink sink = replay(t, /*use_msg=*/false);
  EXPECT_EQ(sink.message_stats().eager_messages, 1u);
  EXPECT_EQ(sink.message_stats().rendezvous_messages, 1u);
  EXPECT_DOUBLE_EQ(sink.message_stats().eager_bytes, 1024.0);
  EXPECT_DOUBLE_EQ(sink.message_stats().rendezvous_bytes, 1048576.0);
}

TEST(Timeline, LinkBusyTimeBoundedBySimulatedTime) {
  const TimelineSink sink = replay(jacobi(), /*use_msg=*/false);
  const double T = sink.finalized_time();
  bool any_busy = false;
  for (const LinkUsage& l : sink.link_usage()) {
    EXPECT_LE(l.busy_seconds, T + 1e-9);
    EXPECT_GE(l.busy_seconds, 0.0);
    if (l.bytes > 0) any_busy = true;
  }
  EXPECT_TRUE(any_busy);  // halo exchanges must have crossed some link
}

TEST(Timeline, WedgedReplayStillFinalizesWithDiagnoses) {
  // p0 receives a message nobody sends: deadlock after p1 finishes.
  const tit::Trace t = tit::parse_trace_string(
      "p0 compute 1e9\n"
      "p0 recv p1 1024\n"
      "p1 compute 2e9\n",
      2);
  TimelineSink sink;
  core::ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.sink = &sink;
  EXPECT_THROW(core::replay(core::Backend::Smpi, t, cluster(2), cfg), DeadlockError);
  ASSERT_TRUE(sink.finalized());
  check_tiling(sink);  // partial timeline still tiles up to the wedge point
  ASSERT_FALSE(sink.diagnoses().empty());
  EXPECT_EQ(sink.diagnoses()[0].actor, 0);
  EXPECT_NE(sink.diagnoses()[0].text.find("recv"), std::string::npos);
}

}  // namespace
}  // namespace tir::obs
