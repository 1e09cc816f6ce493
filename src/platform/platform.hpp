// Simulated platform description: hosts, network links, routing.
//
// A Platform is the static model of a machine: compute nodes (Host) with a
// per-core instruction rate and an L2 cache size, and a switched network.
// Topology is a tree of switches; every host hangs off one switch through a
// full-duplex pair of links (separate up/down Link objects, as in SimGrid's
// cluster models).  Routes are resolved by walking both endpoints to their
// lowest common ancestor switch.  Explicit per-pair routes can override the
// tree for custom topologies.
//
// Host::speed is the *calibrated* rate used by trace replay (instructions per
// second).  The detailed machine model used as ground truth in the
// experiments chooses its own per-phase rates (see apps/machine_model.hpp);
// the gap between the two is precisely what the paper's calibration section
// is about.
//
// Thread safety: a Platform is immutable once built (builders mutate, const
// accessors don't — route() computes fresh results with no mutable caches),
// so one const Platform may be shared by any number of concurrent replay
// sessions without synchronization.  This const-shareability is load-bearing
// for core::Sweep; do not add lazily-populated mutable state here without
// revisiting docs/architecture.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/error.hpp"

namespace tir::platform {

using HostId = std::int32_t;
using LinkId = std::int32_t;
using SwitchId = std::int32_t;

inline constexpr HostId kNoHost = -1;
inline constexpr LinkId kNoLink = -1;
inline constexpr SwitchId kNoSwitch = -1;

struct Link {
  LinkId id = kNoLink;
  std::string name;
  double bandwidth = 0.0;  ///< bytes/s
  double latency = 0.0;    ///< seconds
};

struct Host {
  HostId id = kNoHost;
  std::string name;
  int cores = 1;
  double speed = 1e9;       ///< instructions/s per core (replay calibration)
  double l2_bytes = 1 << 20;  ///< per-core last-private-level cache size
  SwitchId attached_switch = kNoSwitch;
  LinkId up = kNoLink;      ///< host -> switch
  LinkId down = kNoLink;    ///< switch -> host
};

struct Switch {
  SwitchId id = kNoSwitch;
  std::string name;
  SwitchId parent = kNoSwitch;
  LinkId up = kNoLink;    ///< this switch -> parent
  LinkId down = kNoLink;  ///< parent -> this switch
  int depth = 0;
};

/// A resolved route: ordered link ids from source to destination plus the
/// summed base latency.  Empty link list = loopback (same host).
struct Route {
  std::vector<LinkId> links;
  double latency = 0.0;
};

class Platform {
 public:
  Platform() = default;

  // --- construction ------------------------------------------------------
  HostId add_host(const std::string& name, int cores, double speed, double l2_bytes);
  LinkId add_link(const std::string& name, double bandwidth, double latency);
  SwitchId add_switch(const std::string& name, SwitchId parent = kNoSwitch,
                      double uplink_bw = 0.0, double uplink_lat = 0.0);

  /// Attach a host to a switch with a fresh full-duplex link pair.
  void attach(HostId host, SwitchId sw, double bandwidth, double latency);

  /// Explicit route override (directed). Latency defaults to sum of links.
  void add_route(HostId src, HostId dst, std::vector<LinkId> links,
                 std::optional<double> latency = std::nullopt);

  /// Rate (bytes/s) and latency used for intra-host communication.
  void set_loopback(double bandwidth, double latency);
  double loopback_bandwidth() const { return loopback_bw_; }
  double loopback_latency() const { return loopback_lat_; }

  // --- lookup -------------------------------------------------------------
  const Host& host(HostId id) const;
  Host& host(HostId id);
  const Link& link(LinkId id) const;
  Link& link(LinkId id);
  const Switch& switch_at(SwitchId id) const;
  HostId host_by_name(const std::string& name) const;  ///< throws if unknown
  bool has_host(const std::string& name) const { return host_names_.contains(name); }

  std::size_t host_count() const { return hosts_.size(); }
  std::size_t link_count() const { return links_.size(); }
  std::size_t switch_count() const { return switches_.size(); }
  const std::vector<Host>& hosts() const { return hosts_; }
  const std::vector<Link>& links() const { return links_; }

  /// Resolve src -> dst. Throws SimError if no route exists.
  Route route(HostId src, HostId dst) const;

 private:
  Route tree_route(HostId src, HostId dst) const;

  std::vector<Host> hosts_;
  std::vector<Link> links_;
  std::vector<Switch> switches_;
  std::unordered_map<std::string, HostId> host_names_;
  std::unordered_map<std::uint64_t, Route> explicit_routes_;
  double loopback_bw_ = 8e9;    // ~shared-memory copy bandwidth
  double loopback_lat_ = 2e-7;
};

/// Where `nprocs` MPI ranks run: rank r on host r % host_count, one rank
/// per node until the nodes run out (as the paper's experiments place them).
/// The one placement rule of both replay back-ends, the machine runs in
/// src/apps and the Monte Carlo rate scaling.  Throws ConfigError when the
/// platform has no hosts.
std::vector<HostId> place_ranks(const Platform& p, int nprocs);

}  // namespace tir::platform
