#include "platform/platform.hpp"

#include <algorithm>

namespace tir::platform {

namespace {
std::uint64_t pair_key(HostId a, HostId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}
}  // namespace

HostId Platform::add_host(const std::string& name, int cores, double speed, double l2_bytes) {
  TIR_ASSERT(cores >= 1);
  TIR_ASSERT(speed > 0.0);
  if (host_names_.contains(name)) throw ConfigError("duplicate host name: " + name);
  Host h;
  h.id = static_cast<HostId>(hosts_.size());
  h.name = name;
  h.cores = cores;
  h.speed = speed;
  h.l2_bytes = l2_bytes;
  host_names_.emplace(name, h.id);
  hosts_.push_back(std::move(h));
  return hosts_.back().id;
}

LinkId Platform::add_link(const std::string& name, double bandwidth, double latency) {
  TIR_ASSERT(bandwidth > 0.0);
  TIR_ASSERT(latency >= 0.0);
  Link l;
  l.id = static_cast<LinkId>(links_.size());
  l.name = name;
  l.bandwidth = bandwidth;
  l.latency = latency;
  links_.push_back(std::move(l));
  return links_.back().id;
}

SwitchId Platform::add_switch(const std::string& name, SwitchId parent, double uplink_bw,
                              double uplink_lat) {
  Switch s;
  s.id = static_cast<SwitchId>(switches_.size());
  s.name = name;
  s.parent = parent;
  if (parent != kNoSwitch) {
    TIR_ASSERT(static_cast<std::size_t>(parent) < switches_.size());
    TIR_ASSERT(uplink_bw > 0.0);
    s.up = add_link(name + "_up", uplink_bw, uplink_lat);
    s.down = add_link(name + "_down", uplink_bw, uplink_lat);
    s.depth = switches_[static_cast<std::size_t>(parent)].depth + 1;
  }
  switches_.push_back(std::move(s));
  return switches_.back().id;
}

void Platform::attach(HostId host_id, SwitchId sw, double bandwidth, double latency) {
  Host& h = host(host_id);
  TIR_ASSERT(static_cast<std::size_t>(sw) < switches_.size());
  TIR_ASSERT(h.attached_switch == kNoSwitch);
  h.attached_switch = sw;
  h.up = add_link(h.name + "_up", bandwidth, latency);
  h.down = add_link(h.name + "_down", bandwidth, latency);
}

void Platform::add_route(HostId src, HostId dst, std::vector<LinkId> links,
                         std::optional<double> latency) {
  for (const LinkId l : links) TIR_ASSERT(static_cast<std::size_t>(l) < links_.size());
  Route r;
  r.links = std::move(links);
  if (latency.has_value()) {
    r.latency = *latency;
  } else {
    for (const LinkId l : r.links) r.latency += links_[static_cast<std::size_t>(l)].latency;
  }
  explicit_routes_[pair_key(src, dst)] = std::move(r);
}

void Platform::set_loopback(double bandwidth, double latency) {
  TIR_ASSERT(bandwidth > 0.0);
  loopback_bw_ = bandwidth;
  loopback_lat_ = latency;
}

const Host& Platform::host(HostId id) const {
  TIR_ASSERT(id >= 0 && static_cast<std::size_t>(id) < hosts_.size());
  return hosts_[static_cast<std::size_t>(id)];
}

Host& Platform::host(HostId id) {
  TIR_ASSERT(id >= 0 && static_cast<std::size_t>(id) < hosts_.size());
  return hosts_[static_cast<std::size_t>(id)];
}

const Link& Platform::link(LinkId id) const {
  TIR_ASSERT(id >= 0 && static_cast<std::size_t>(id) < links_.size());
  return links_[static_cast<std::size_t>(id)];
}

Link& Platform::link(LinkId id) {
  TIR_ASSERT(id >= 0 && static_cast<std::size_t>(id) < links_.size());
  return links_[static_cast<std::size_t>(id)];
}

const Switch& Platform::switch_at(SwitchId id) const {
  TIR_ASSERT(id >= 0 && static_cast<std::size_t>(id) < switches_.size());
  return switches_[static_cast<std::size_t>(id)];
}

HostId Platform::host_by_name(const std::string& name) const {
  const auto it = host_names_.find(name);
  if (it == host_names_.end()) throw Error("unknown host: " + name);
  return it->second;
}

Route Platform::route(HostId src, HostId dst) const {
  if (src == dst) return Route{{}, loopback_lat_};
  const auto it = explicit_routes_.find(pair_key(src, dst));
  if (it != explicit_routes_.end()) return it->second;
  return tree_route(src, dst);
}

std::vector<std::tuple<HostId, HostId, const Route*>> Platform::explicit_routes() const {
  std::vector<std::tuple<HostId, HostId, const Route*>> routes;
  routes.reserve(explicit_routes_.size());
  for (const auto& [key, route] : explicit_routes_) {
    routes.emplace_back(static_cast<HostId>(key >> 32), static_cast<HostId>(key & 0xffffffffu),
                        &route);
  }
  std::sort(routes.begin(), routes.end(), [](const auto& a, const auto& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) < std::tie(std::get<0>(b), std::get<1>(b));
  });
  return routes;
}

Route Platform::tree_route(HostId src, HostId dst) const {
  const Host& a = host(src);
  const Host& b = host(dst);
  if (a.attached_switch == kNoSwitch || b.attached_switch == kNoSwitch) {
    throw SimError("no route between " + a.name + " and " + b.name +
                   " (host not attached to a switch and no explicit route)");
  }
  Route r;
  r.links.push_back(a.up);
  // Climb both sides to their lowest common ancestor.
  SwitchId sa = a.attached_switch;
  SwitchId sb = b.attached_switch;
  std::vector<LinkId> down_path;  // collected in reverse (dst upward)
  while (sa != sb) {
    const Switch& swa = switch_at(sa);
    const Switch& swb = switch_at(sb);
    if (swa.depth >= swb.depth) {
      if (swa.parent == kNoSwitch) {
        throw SimError("hosts " + a.name + " and " + b.name + " are in disjoint trees");
      }
      r.links.push_back(swa.up);
      sa = swa.parent;
    } else {
      if (swb.parent == kNoSwitch) {
        throw SimError("hosts " + a.name + " and " + b.name + " are in disjoint trees");
      }
      down_path.push_back(swb.down);
      sb = swb.parent;
    }
  }
  r.links.insert(r.links.end(), down_path.rbegin(), down_path.rend());
  r.links.push_back(b.down);
  for (const LinkId l : r.links) r.latency += links_[static_cast<std::size_t>(l)].latency;
  return r;
}

std::vector<HostId> place_ranks(const Platform& p, int nprocs) {
  if (p.host_count() == 0) {
    throw ConfigError("platform has no hosts to place " + std::to_string(nprocs) + " rank(s) on");
  }
  const int hosts = static_cast<int>(p.host_count());
  std::vector<HostId> placement(static_cast<std::size_t>(std::max(nprocs, 0)));
  for (int r = 0; r < nprocs; ++r) {
    placement[static_cast<std::size_t>(r)] = static_cast<HostId>(r % hosts);
  }
  return placement;
}

}  // namespace tir::platform
