#include "platform/parse.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "base/string_util.hpp"
#include "base/units.hpp"
#include "platform/clusters.hpp"

namespace tir::platform {

namespace {

/// key=value fields after the positional tokens.
class Fields {
 public:
  Fields(const std::vector<std::string_view>& tokens, std::size_t first, int line) : line_(line) {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const auto kv = str::split(tokens[i], '=');
      if (kv.size() != 2 || kv[0].empty()) {
        throw ParseError("line " + std::to_string(line) + ": expected key=value, got '" +
                         std::string(tokens[i]) + "'");
      }
      fields_[std::string(kv[0])] = std::string(kv[1]);
    }
  }

  bool has(const std::string& key) const { return fields_.contains(key); }

  std::string get(const std::string& key) const {
    const auto it = fields_.find(key);
    if (it == fields_.end()) {
      throw ParseError("line " + std::to_string(line_) + ": missing field '" + key + "'");
    }
    return it->second;
  }

  std::string get_or(const std::string& key, const std::string& fallback) const {
    const auto it = fields_.find(key);
    return it == fields_.end() ? fallback : it->second;
  }

  double bandwidth(const std::string& key) const {
    const double v = units::parse_bandwidth(get(key));
    if (!(v > 0.0)) semantic(key, "bandwidth must be positive");
    return v;
  }
  double duration(const std::string& key) const {
    const double v = units::parse_duration(get(key));
    if (!(v >= 0.0)) semantic(key, "latency must be non-negative");
    return v;
  }
  double bytes(const std::string& key) const {
    return static_cast<double>(units::parse_bytes(get(key)));
  }
  int integer(const std::string& key) const {
    const std::uint64_t v = str::to_u64(get(key), key);
    if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      semantic(key, "count does not fit in int");
    }
    return static_cast<int>(v);
  }
  int count(const std::string& key) const {
    const int v = integer(key);
    if (v < 1) semantic(key, "count must be at least 1");
    return v;
  }
  double number(const std::string& key) const { return str::to_double(get(key), key); }
  double speed(const std::string& key) const {
    const double v = number(key);
    if (!(v > 0.0)) semantic(key, "compute rate must be positive");
    return v;
  }

 private:
  /// A field that parses but describes an impossible machine: a typed
  /// ConfigError naming the offending `key=value` token and its line.
  [[noreturn]] void semantic(const std::string& key, const char* why) const {
    throw ConfigError("line " + std::to_string(line_) + ": " + why + ", got '" + key + "=" +
                      get(key) + "'");
  }

  std::map<std::string, std::string> fields_;
  int line_;
};

}  // namespace

Platform parse_platform(std::istream& in) {
  Platform p;
  std::map<std::string, SwitchId> switch_names;
  std::map<std::string, LinkId> link_names;
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string_view text = str::trim(raw);
    if (text.empty() || text.front() == '#') continue;
    const auto tokens = str::split_ws(text);
    const std::string_view kind = tokens[0];

    if (kind == "loopback") {
      const Fields f(tokens, 1, line);
      p.set_loopback(f.bandwidth("bw"), f.duration("lat"));
    } else if (kind == "switch") {
      if (tokens.size() < 2) throw ParseError("line " + std::to_string(line) + ": switch needs a name");
      const std::string name(tokens[1]);
      const Fields f(tokens, 2, line);
      SwitchId parent = kNoSwitch;
      double bw = 0.0;
      double lat = 0.0;
      if (f.has("parent")) {
        const auto it = switch_names.find(f.get("parent"));
        if (it == switch_names.end()) {
          throw ParseError("line " + std::to_string(line) + ": unknown parent switch '" +
                           f.get("parent") + "'");
        }
        parent = it->second;
        bw = f.bandwidth("bw");
        lat = f.duration("lat");
      }
      switch_names[name] = p.add_switch(name, parent, bw, lat);
    } else if (kind == "host") {
      if (tokens.size() < 2) throw ParseError("line " + std::to_string(line) + ": host needs a name");
      const std::string name(tokens[1]);
      if (p.has_host(name)) {
        throw ConfigError("line " + std::to_string(line) + ": duplicate host name '" + name +
                          "'");
      }
      const Fields f(tokens, 2, line);
      const HostId h =
          p.add_host(name, f.count("cores"), f.speed("speed"), f.bytes("l2"));
      if (f.has("switch")) {
        const auto it = switch_names.find(f.get("switch"));
        if (it == switch_names.end()) {
          throw ParseError("line " + std::to_string(line) + ": unknown switch '" +
                           f.get("switch") + "'");
        }
        p.attach(h, it->second, f.bandwidth("bw"), f.duration("lat"));
      }
    } else if (kind == "link") {
      if (tokens.size() < 2) throw ParseError("line " + std::to_string(line) + ": link needs a name");
      const std::string name(tokens[1]);
      const Fields f(tokens, 2, line);
      link_names[name] = p.add_link(name, f.bandwidth("bw"), f.duration("lat"));
    } else if (kind == "route") {
      if (tokens.size() < 3) {
        throw ParseError("line " + std::to_string(line) + ": route needs src and dst");
      }
      const Fields f(tokens, 3, line);
      std::vector<LinkId> links;
      const std::string link_list = f.get("links");  // split() views into this
      for (const auto name : str::split(link_list, ',')) {
        const auto it = link_names.find(std::string(name));
        if (it == link_names.end()) {
          throw ParseError("line " + std::to_string(line) + ": unknown link '" +
                           std::string(name) + "'");
        }
        links.push_back(it->second);
      }
      const HostId src = p.host_by_name(std::string(tokens[1]));
      const HostId dst = p.host_by_name(std::string(tokens[2]));
      p.add_route(src, dst, links);
      if (f.get_or("symmetric", "yes") == "yes") {
        std::vector<LinkId> rev(links.rbegin(), links.rend());
        p.add_route(dst, src, std::move(rev));
      }
    } else if (kind == "cluster") {
      const Fields f(tokens, 1, line);
      ClusterSpec spec;
      spec.prefix = f.get_or("prefix", "node");
      spec.nodes = f.count("nodes");
      spec.cores_per_node = f.count("cores");
      spec.core_speed = f.speed("speed");
      spec.l2_bytes = f.bytes("l2");
      spec.link_bandwidth = f.bandwidth("bw");
      spec.link_latency = f.duration("lat");
      const int cabinets = f.has("cabinets") ? f.integer("cabinets") : 1;
      if (cabinets <= 1) {
        build_flat_cluster(p, spec);
      } else {
        build_cabinet_cluster(p, spec, cabinets, f.bandwidth("uplink_bw"),
                              f.duration("uplink_lat"));
      }
    } else {
      throw ParseError("line " + std::to_string(line) + ": unknown entity '" + std::string(kind) +
                       "'");
    }
  }
  return p;
}

Platform parse_platform_string(const std::string& text) {
  std::istringstream in(text);
  return parse_platform(in);
}

Platform load_platform(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open platform file: " + path);
  return parse_platform(in);
}

namespace {
std::string bw_text(double bytes_per_second) {
  std::ostringstream os;
  os << bytes_per_second * 8.0 << "bps";
  return os.str();
}
std::string lat_text(double seconds) {
  std::ostringstream os;
  os << seconds * 1e9 << "ns";
  return os.str();
}
}  // namespace

void write_platform(const Platform& p, std::ostream& out) {
  out << "# generated by tir::platform::write_platform\n";
  out << "loopback bw=" << bw_text(p.loopback_bandwidth())
      << " lat=" << lat_text(p.loopback_latency()) << "\n";
  for (std::size_t s = 0; s < p.switch_count(); ++s) {
    const Switch& sw = p.switch_at(static_cast<SwitchId>(s));
    out << "switch " << sw.name;
    if (sw.parent != kNoSwitch) {
      const Link& up = p.link(sw.up);
      out << " parent=" << p.switch_at(sw.parent).name << " bw=" << bw_text(up.bandwidth)
          << " lat=" << lat_text(up.latency);
    }
    out << "\n";
  }
  for (const Host& h : p.hosts()) {
    out << "host " << h.name << " cores=" << h.cores << " speed=" << h.speed
        << " l2=" << static_cast<std::uint64_t>(h.l2_bytes);
    if (h.attached_switch != kNoSwitch) {
      const Link& up = p.link(h.up);
      out << " switch=" << p.switch_at(h.attached_switch).name
          << " bw=" << bw_text(up.bandwidth) << " lat=" << lat_text(up.latency);
    }
    out << "\n";
  }
}

std::string write_platform_string(const Platform& p) {
  std::ostringstream os;
  write_platform(p, os);
  return os.str();
}

}  // namespace tir::platform
