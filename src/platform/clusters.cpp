#include "platform/clusters.hpp"

namespace tir::platform {

void build_flat_cluster(Platform& p, const ClusterSpec& spec) {
  const SwitchId sw = p.add_switch(spec.prefix + "_switch");
  for (int i = 0; i < spec.nodes; ++i) {
    const HostId h = p.add_host(spec.prefix + "-" + std::to_string(i), spec.cores_per_node,
                                spec.core_speed, spec.l2_bytes);
    p.attach(h, sw, spec.link_bandwidth, spec.link_latency);
  }
}

Platform default_cluster(int nodes, double core_speed) {
  Platform p;
  ClusterSpec spec;
  spec.nodes = nodes;
  spec.core_speed = core_speed;
  spec.link_latency = 3e-5;
  build_flat_cluster(p, spec);
  return p;
}

void build_cabinet_cluster(Platform& p, const ClusterSpec& spec, int cabinets,
                           double uplink_bandwidth, double uplink_latency) {
  TIR_ASSERT(cabinets >= 1);
  const SwitchId root = p.add_switch(spec.prefix + "_root");
  std::vector<SwitchId> leaf;
  leaf.reserve(static_cast<std::size_t>(cabinets));
  for (int c = 0; c < cabinets; ++c) {
    leaf.push_back(p.add_switch(spec.prefix + "_cab" + std::to_string(c), root, uplink_bandwidth,
                                uplink_latency));
  }
  for (int i = 0; i < spec.nodes; ++i) {
    const HostId h = p.add_host(spec.prefix + "-" + std::to_string(i), spec.cores_per_node,
                                spec.core_speed, spec.l2_bytes);
    p.attach(h, leaf[static_cast<std::size_t>(i % cabinets)], spec.link_bandwidth,
             spec.link_latency);
  }
}

Platform bordereau() {
  Platform p;
  ClusterSpec spec;
  spec.prefix = "bordereau";
  spec.nodes = 93;
  spec.cores_per_node = 4;  // dual-proc, dual-core
  spec.core_speed = 2.25e9;  // nominal; calibration overwrites this
  spec.l2_bytes = 1.0 * (1 << 20);
  spec.link_bandwidth = 1.25e8;  // 1 GbE NIC towards the 10G switch
  spec.link_latency = 2.5e-5;
  build_flat_cluster(p, spec);
  p.set_loopback(6e9, 2e-7);
  return p;
}

Platform graphene() {
  Platform p;
  ClusterSpec spec;
  spec.prefix = "graphene";
  spec.nodes = 144;
  spec.cores_per_node = 4;
  spec.core_speed = 3.3e9;  // nominal; calibration overwrites this
  spec.l2_bytes = 2.0 * (1 << 20);
  spec.link_bandwidth = 1.25e8;  // 1 GbE NIC
  spec.link_latency = 2.5e-5;
  // 4 cabinets, 36 nodes each, 10 GbE uplinks to the root switch.
  build_cabinet_cluster(p, spec, 4, 1.25e9, 2.0e-6);
  p.set_loopback(8e9, 1.5e-7);
  return p;
}

ClusterCalibrationTruth bordereau_truth() {
  ClusterCalibrationTruth t;
  t.rate_in_cache = 2.05e9;      // ~0.8 instr/cycle at 2.6 GHz
  t.rate_out_of_cache = 1.64e9;  // DRAM-bound SSOR sweeps (-20%)
  t.l2_bytes = 1.0 * (1 << 20);
  t.copy_rate = 1.6e9;
  t.per_message_overhead = 5.0e-6;  // older kernel/NIC stack
  return t;
}

ClusterCalibrationTruth graphene_truth() {
  ClusterCalibrationTruth t;
  t.rate_in_cache = 3.4e9;       // Nehalem-class: higher IPC at 2.53 GHz
  t.rate_out_of_cache = 2.72e9;  // better prefetchers: same relative penalty
  t.l2_bytes = 2.0 * (1 << 20);
  t.copy_rate = 3.2e9;
  t.per_message_overhead = 3.0e-6;
  return t;
}

}  // namespace tir::platform
