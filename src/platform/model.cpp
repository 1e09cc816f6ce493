#include "platform/model.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/string_util.hpp"

namespace tir::platform {
namespace {

// Field tags folded into each draw's stream key.  One tag per perturbable
// scalar: a link's bandwidth and latency draws must differ even though they
// share the entity name.
constexpr std::uint64_t kTagBandwidth = 'B';
constexpr std::uint64_t kTagLatency = 'L';
constexpr std::uint64_t kTagSpeed = 'S';

std::uint64_t draw_stream(std::uint64_t instance_seed, std::uint64_t tag,
                          const std::string& name) {
  return rng::combine(instance_seed, rng::combine(tag, name_hash(name)));
}

/// Standard normal deviate keyed by `stream` (Box-Muller over the stream's
/// draw indices 0 and 1; pure, no state).
double keyed_gaussian(std::uint64_t stream) {
  // Guard the log: uniform01 may return exactly 0.
  const double u1 = 1.0 - rng::uniform01(stream, 0);
  const double u2 = rng::uniform01(stream, 1);
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

// A perturbed scalar must stay physical: clamp multipliers to a small
// positive floor instead of letting a wide gaussian produce a negative
// bandwidth.
constexpr double kMultiplierFloor = 1e-6;

double strict_double(const std::string& token, const std::string& clause) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    throw ConfigError("perturbation spec: malformed number '" + token + "' in '" +
                      clause + "'");
  }
  return v;
}

Distribution parse_distribution(const std::string& value, const std::string& clause) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    throw ConfigError("perturbation spec: expected KIND:PARAM in '" + clause + "'");
  }
  const std::string kind = value.substr(0, colon);
  const std::string param_text = value.substr(colon + 1);
  Distribution d;
  if (kind == "uniform") {
    d.kind = Distribution::Kind::Uniform;
  } else if (kind == "normal") {
    d.kind = Distribution::Kind::Normal;
  } else if (kind == "lognormal") {
    d.kind = Distribution::Kind::LogNormal;
  } else {
    throw ConfigError("perturbation spec: unknown distribution '" + kind + "' in '" +
                      clause + "'");
  }
  d.param = strict_double(param_text, clause);
  if (!(d.param >= 0.0) || !std::isfinite(d.param)) {
    throw ConfigError("perturbation spec: spread must be finite and >= 0 in '" +
                      clause + "'");
  }
  if (d.kind == Distribution::Kind::Uniform && d.param >= 1.0) {
    throw ConfigError(
        "perturbation spec: uniform half-width must be < 1 (multiplier would touch"
        " zero) in '" + clause + "'");
  }
  return d;
}

std::string render_distribution(const char* key, const Distribution& d) {
  const char* kind = "";
  switch (d.kind) {
    case Distribution::Kind::None: return "";
    case Distribution::Kind::Uniform: kind = "uniform"; break;
    case Distribution::Kind::Normal: kind = "normal"; break;
    case Distribution::Kind::LogNormal: kind = "lognormal"; break;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), ";%s=%s:%.17g", key, kind, d.param);
  return buf;
}

}  // namespace

std::uint64_t name_hash(const std::string& name) {
  // FNV-1a, the same bytewise fingerprint family as base/binio.hpp: stable
  // across platforms so draw streams (and thus instantiated platforms) are
  // reproducible between processes.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double Distribution::sample(std::uint64_t stream) const {
  double m = 1.0;
  switch (kind) {
    case Kind::None:
      return 1.0;
    case Kind::Uniform:
      m = 1.0 + param * rng::uniform_pm1(stream, 0);
      break;
    case Kind::Normal:
      m = 1.0 + param * keyed_gaussian(stream);
      break;
    case Kind::LogNormal:
      m = std::exp(param * keyed_gaussian(stream));
      break;
  }
  return m > kMultiplierFloor ? m : kMultiplierFloor;
}

PerturbationSpec PerturbationSpec::parse(const std::string& text) {
  PerturbationSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string clause = text.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;  // tolerate trailing/empty separators
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("perturbation spec: expected KEY=VALUE, got '" + clause + "'");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "seed") {
      // The whole value, decimal digits only, within 64 bits.
      try {
        spec.seed = str::to_u64(value, "seed");
      } catch (const ParseError&) {
        throw ConfigError("perturbation spec: malformed seed '" + value + "'");
      }
    } else if (key == "link.bw") {
      spec.link_bandwidth = parse_distribution(value, clause);
    } else if (key == "link.lat") {
      spec.link_latency = parse_distribution(value, clause);
    } else if (key == "host.speed") {
      spec.host_speed = parse_distribution(value, clause);
    } else {
      throw ConfigError("perturbation spec: unknown key '" + key + "' in '" + clause +
                        "'");
    }
  }
  return spec;
}

std::string PerturbationSpec::canonical() const {
  std::string out = "seed=" + std::to_string(seed);
  out += render_distribution("host.speed", host_speed);
  out += render_distribution("link.bw", link_bandwidth);
  out += render_distribution("link.lat", link_latency);
  return out;
}

std::uint64_t PerturbationSpec::hash() const { return name_hash(canonical()); }

std::uint64_t PerturbationSpec::replicate_seed(std::uint64_t i) const {
  return rng::combine(seed, rng::mix64(i));
}

const std::vector<std::string>& perturbation_parameters() {
  static const std::vector<std::string> names = {"host.speed", "link.bw", "link.lat"};
  return names;
}

PerturbationSpec isolate_parameter(const PerturbationSpec& spec,
                                   const std::string& parameter) {
  PerturbationSpec out;
  out.seed = spec.seed;
  if (parameter == "host.speed") {
    out.host_speed = spec.host_speed;
  } else if (parameter == "link.bw") {
    out.link_bandwidth = spec.link_bandwidth;
  } else if (parameter == "link.lat") {
    out.link_latency = spec.link_latency;
  } else {
    throw ConfigError("unknown perturbation parameter '" + parameter + "'");
  }
  return out;
}

std::shared_ptr<const Platform> PlatformModel::instantiate(
    std::uint64_t instance_seed) const {
  if (base_ == nullptr) throw ConfigError("PlatformModel has no base platform");
  if (!spec_.active()) return base_;  // the base *is* the instance
  auto instance = std::make_shared<Platform>(*base_);
  if (spec_.host_speed.active()) {
    for (std::size_t i = 0; i < instance->host_count(); ++i) {
      Host& h = instance->host(static_cast<HostId>(i));
      h.speed *= spec_.host_speed.sample(draw_stream(instance_seed, kTagSpeed, h.name));
    }
  }
  if (spec_.link_bandwidth.active() || spec_.link_latency.active()) {
    for (std::size_t i = 0; i < instance->link_count(); ++i) {
      Link& l = instance->link(static_cast<LinkId>(i));
      if (spec_.link_bandwidth.active()) {
        l.bandwidth *=
            spec_.link_bandwidth.sample(draw_stream(instance_seed, kTagBandwidth, l.name));
      }
      if (spec_.link_latency.active()) {
        l.latency *=
            spec_.link_latency.sample(draw_stream(instance_seed, kTagLatency, l.name));
      }
    }
  }
  return instance;
}

}  // namespace tir::platform
