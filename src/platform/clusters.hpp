// Cluster construction helpers and the two Grid'5000 cluster models used by
// the paper's evaluation (bordereau and graphene).
//
// The numeric parameters (rates, cache sizes, link characteristics) are the
// model calibration recorded in DESIGN.md §4: they reproduce the regimes the
// paper reports (in-cache vs. out-of-cache instruction rates, eager-mode
// latency behaviour), not the exact silicon.
#pragma once

#include <string>

#include "platform/platform.hpp"

namespace tir::platform {

struct ClusterSpec {
  std::string prefix = "node";
  int nodes = 1;
  int cores_per_node = 1;
  double core_speed = 1e9;   ///< instructions/s (replay-side nominal rate)
  double l2_bytes = 1 << 20;
  double link_bandwidth = 1.25e8;  ///< host <-> switch, bytes/s
  double link_latency = 5e-5;
};

/// One switch, every node attached to it.
void build_flat_cluster(Platform& p, const ClusterSpec& spec);

/// The platform the tools fall back on without a platform file: `nodes`
/// single-core hosts at `core_speed` instructions/s on one switch, each on
/// a gigabit link (1.25e8 B/s, 30 us).
Platform default_cluster(int nodes, double core_speed);

/// `cabinets` leaf switches under one root switch; nodes spread round-robin.
void build_cabinet_cluster(Platform& p, const ClusterSpec& spec, int cabinets,
                           double uplink_bandwidth, double uplink_latency);

/// Model of the *bordereau* cluster: 93 nodes, 2.6 GHz dual-proc dual-core
/// AMD Opteron 2218 (1 MiB L2 per core), single 10-gigabit switch.
Platform bordereau();

/// Model of the *graphene* cluster: 144 nodes, 2.53 GHz quad-core Xeon X3440
/// (2 MiB effective private cache per core in the paper's accounting),
/// 4 cabinets under a hierarchy of 10-gigabit switches.
Platform graphene();

/// Machine-model constants attached to the named clusters.  The ground-truth
/// execution model (apps/machine_model) needs rates the *replay* platform
/// does not know: the in-cache and out-of-cache instruction rates.
struct ClusterCalibrationTruth {
  double rate_in_cache = 0.0;      ///< instr/s when the working set fits L2
  double rate_out_of_cache = 0.0;  ///< asymptotic instr/s far out of cache
  double l2_bytes = 0.0;
  double copy_rate = 0.0;          ///< memory copy bandwidth (eager sends), B/s
  double per_message_overhead = 0.0;  ///< MPI stack CPU time per message/side
};

ClusterCalibrationTruth bordereau_truth();
ClusterCalibrationTruth graphene_truth();

}  // namespace tir::platform
