// Quickstart: replay the paper's own trace snippet on a two-node cluster.
//
//   $ ./quickstart
//
// Demonstrates the three core objects in under a minute of reading:
//   tit::Trace            - the time-independent trace (volumes only)
//   platform::Platform    - the simulated machine
//   core::replay          - the replay engine producing a predicted time
#include <cstdio>

#include "core/replay.hpp"
#include "platform/clusters.hpp"
#include "tit/trace.hpp"

int main() {
  using namespace tir;

  // A time-independent trace: the exact snippet from the paper (§3.2),
  // plus the matching receiver side. No timestamps anywhere - only volumes.
  const tit::Trace trace = tit::parse_trace_string(
      "p0 compute 956140\n"
      "p0 send p1 1240\n"
      "p0 compute 2110\n"
      "p0 send p2 1240\n"
      "p0 compute 3821\n"
      "p1 recv p0 1240\n"
      "p1 compute 500000\n"
      "p2 recv p0 1240\n"
      "p2 compute 250000\n",
      /*nprocs=*/3);
  tit::validate(trace);  // sends and receives must balance

  // A small cluster: 4 nodes, gigabit links, one switch.
  platform::Platform cluster;
  platform::ClusterSpec spec;
  spec.prefix = "node";
  spec.nodes = 4;
  spec.core_speed = 2e9;
  spec.link_bandwidth = 1.25e8;  // 1 Gbps
  spec.link_latency = 3e-5;
  platform::build_flat_cluster(cluster, spec);

  // Replay: compute actions are priced at a calibrated instruction rate;
  // communications go through the full SMPI protocol model.
  core::ReplayConfig config;
  config.rates = {2e9};  // instructions/second (from calibration)
  const core::ReplayResult result = core::replay(core::Backend::Smpi, trace, cluster, config);

  std::printf("predicted execution time : %.6f s\n", result.simulated_time);
  std::printf("actions replayed         : %llu\n",
              static_cast<unsigned long long>(result.actions_replayed));
  std::printf("replay wall-clock        : %.3f ms\n", result.wall_clock_seconds * 1e3);

  // The same trace on a machine twice as fast, without re-tracing anything:
  // that decoupling is the whole point of time-independent traces.
  config.rates = {4e9};
  const core::ReplayResult faster = core::replay(core::Backend::Smpi, trace, cluster, config);
  std::printf("on a 2x faster machine   : %.6f s\n", faster.simulated_time);
  return 0;
}
