// Critical-path walker: on a fully serialized dependency chain the path's
// busy time equals the simulated time (no slack anywhere); on independent
// ranks the longest rank carries the whole path and the others get full
// slack; segments always tile [0, simulated_time].
#include "obs/critical_path.hpp"

#include <gtest/gtest.h>

#include "core/replay.hpp"
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

TimelineSink replay(const std::string& text, int np) {
  const tit::Trace t = tit::parse_trace_string(text, np);
  TimelineSink sink;
  core::ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.sink = &sink;
  core::replay(core::Backend::Smpi, t, cluster(np), cfg);
  return sink;
}

void check_tiling(const CriticalPath& path) {
  ASSERT_FALSE(path.segments.empty());
  EXPECT_DOUBLE_EQ(path.segments.front().begin, 0.0);
  EXPECT_DOUBLE_EQ(path.segments.back().end, path.simulated_time);
  for (std::size_t i = 1; i < path.segments.size(); ++i) {
    EXPECT_DOUBLE_EQ(path.segments[i - 1].end, path.segments[i].begin) << "segment " << i;
  }
}

TEST(CriticalPath, SerialChainHasNoSlackOnPath) {
  // p0 computes then sends to p1, which computes then sends to p2: a pure
  // dependency chain.  Rendezvous-size messages (1 MiB >> 64 KiB) so the
  // transfer itself serializes sender and receiver; every simulated second
  // is on the path.
  const TimelineSink sink = replay(
      "p0 compute 2e9\n"
      "p0 send p1 1048576\n"
      "p1 recv p0 1048576\n"
      "p1 compute 1e9\n"
      "p1 send p2 1048576\n"
      "p2 recv p1 1048576\n"
      "p2 compute 5e8\n",
      3);
  const CriticalPath path = critical_path(sink);
  check_tiling(path);
  EXPECT_GT(path.simulated_time, 0.0);
  EXPECT_NEAR(path.busy_seconds, path.simulated_time, 1e-9);
  // Path time is split across all three ranks and adds up to the makespan.
  double total = 0.0;
  for (const double s : path.rank_path_seconds) total += s;
  EXPECT_NEAR(total, path.simulated_time, 1e-9);
  for (int r = 0; r < 3; ++r) {
    EXPECT_NEAR(path.rank_slack[r], path.simulated_time - path.rank_path_seconds[r], 1e-12);
    EXPECT_GT(path.rank_path_seconds[r], 0.0) << "rank " << r;
  }
}

TEST(CriticalPath, IndependentRanksPathIsLongestRank) {
  const TimelineSink sink = replay(
      "p0 compute 3e9\n"
      "p1 compute 1e9\n",
      2);
  const CriticalPath path = critical_path(sink);
  check_tiling(path);
  EXPECT_NEAR(path.simulated_time, 3.0, 1e-9);
  EXPECT_NEAR(path.rank_path_seconds[0], 3.0, 1e-9);
  EXPECT_NEAR(path.rank_slack[0], 0.0, 1e-9);
  EXPECT_NEAR(path.rank_slack[1], 3.0, 1e-9);
  // Every path segment belongs to rank 0 and none of it is blocked time.
  for (const PathSegment& s : path.segments) EXPECT_EQ(s.rank, 0);
  EXPECT_NEAR(path.busy_seconds, 3.0, 1e-9);
}

TEST(CriticalPath, LateSenderShowsAsPartnerTime) {
  // p1 posts its recv immediately but p0 computes 2s first: the walker must
  // attribute p1's waited-through time to p0's timeline via the recv jump.
  const TimelineSink sink = replay(
      "p0 compute 2e9\n"
      "p0 send p1 1048576\n"
      "p1 recv p0 1048576\n",
      2);
  const CriticalPath path = critical_path(sink);
  check_tiling(path);
  // p0 carries (at least) its 2s compute on the path.
  EXPECT_GE(path.rank_path_seconds[0], 2.0 - 1e-9);
  EXPECT_LE(path.rank_slack[0], path.simulated_time - 2.0 + 1e-9);
}

}  // namespace
}  // namespace tir::obs
