#include "ckpt/checkpoint.hpp"

#include <bit>
#include <string>

#include "base/binio.hpp"
#include "base/error.hpp"

namespace tir::ckpt {

const TraceCheckpoint* nearest_before(const CheckpointBlock& block, double t) {
  const TraceCheckpoint* best = nullptr;
  for (const TraceCheckpoint& c : block.checkpoints) {
    if (c.time <= t) best = &c;  // ascending by time: last match wins
  }
  return best;
}

std::uint64_t scenario_fingerprint(core::Backend backend, const platform::Platform& platform,
                                   const core::ReplayConfig& config) {
  using binio::mix64;
  // Domain tag 'F' keeps scenario fingerprints disjoint from trace hashes.
  std::uint64_t h = mix64(binio::kHashSeed, 'F');
  h = mix64(h, static_cast<std::uint64_t>(backend));
  h = mix64(h, static_cast<std::uint64_t>(config.sharing));
  h = mix64(h, config.rates.size());
  for (const double r : config.rates) h = mix64(h, std::bit_cast<std::uint64_t>(r));

  const smpi::Config& mpi = config.mpi;
  // Two retired collective-algorithm selectors (binomial bcast, reduce+bcast
  // allreduce, both 0) are still folded as constants: the fingerprints of
  // checkpoints already stored in TITB v2 files stay adoptable.
  h = mix64(h, 0u);
  h = mix64(h, 0u);
  h = mix64(h, std::bit_cast<std::uint64_t>(mpi.eager_threshold));
  h = mix64(h, mpi.model_copy_time ? 1u : 0u);
  h = mix64(h, std::bit_cast<std::uint64_t>(mpi.copy_rate));
  h = mix64(h, std::bit_cast<std::uint64_t>(mpi.per_message_cpu_seconds));
  h = mix64(h, mpi.piecewise.segments().size());
  for (const smpi::PiecewiseSegment& s : mpi.piecewise.segments()) {
    h = mix64(h, std::bit_cast<std::uint64_t>(s.max_size));
    h = mix64(h, std::bit_cast<std::uint64_t>(s.lat_factor));
    h = mix64(h, std::bit_cast<std::uint64_t>(s.bw_factor));
  }

  // Ids are folded as their 32-bit patterns (kNoSwitch/kNoLink as all ones).
  const auto id = [](std::int32_t v) { return static_cast<std::uint32_t>(v); };
  h = mix64(h, static_cast<std::uint64_t>(platform.host_count()));
  for (const platform::Host& host : platform.hosts()) {
    h = mix64(h, static_cast<std::uint64_t>(host.cores));
    h = mix64(h, std::bit_cast<std::uint64_t>(host.speed));
    h = mix64(h, std::bit_cast<std::uint64_t>(host.l2_bytes));
    // Topology, every other input of Platform::route: where the host hangs
    // off the switch tree and through which link pair, ...
    h = mix64(h, id(host.attached_switch));
    h = mix64(h, id(host.up));
    h = mix64(h, id(host.down));
  }
  h = mix64(h, platform.links().size());
  for (const platform::Link& link : platform.links()) {
    h = mix64(h, std::bit_cast<std::uint64_t>(link.bandwidth));
    h = mix64(h, std::bit_cast<std::uint64_t>(link.latency));
  }
  // ... each switch's parent and uplink pair, and the explicit routes in
  // (src, dst) order.
  h = mix64(h, platform.switch_count());
  for (std::size_t s = 0; s < platform.switch_count(); ++s) {
    const platform::Switch& sw = platform.switch_at(static_cast<platform::SwitchId>(s));
    h = mix64(h, id(sw.parent));
    h = mix64(h, id(sw.up));
    h = mix64(h, id(sw.down));
  }
  const auto routes = platform.explicit_routes();
  h = mix64(h, routes.size());
  for (const auto& [src, dst, route] : routes) {
    h = mix64(h, id(src));
    h = mix64(h, id(dst));
    h = mix64(h, route->links.size());
    for (const platform::LinkId l : route->links) h = mix64(h, id(l));
    h = mix64(h, std::bit_cast<std::uint64_t>(route->latency));
  }
  h = mix64(h, std::bit_cast<std::uint64_t>(platform.loopback_bandwidth()));
  h = mix64(h, std::bit_cast<std::uint64_t>(platform.loopback_latency()));
  return h;
}

std::uint64_t prefix_hash_seed() { return binio::mix64(binio::kHashSeed, 'P'); }

void check_seekable(int nprocs, const platform::Platform& platform,
                    const core::ReplayConfig& config) {
  if (config.sharing != sim::Sharing::Uncontended) {
    throw ConfigError(
        "checkpointed replay requires Sharing::Uncontended: under contention "
        "a prefix transfer overlapping the cut would change the max-min "
        "rates of suffix transfers, so a restored replay would diverge");
  }
  if (nprocs < 0 || static_cast<std::size_t>(nprocs) > platform.host_count()) {
    throw ConfigError("checkpointed replay requires nprocs <= host count (" +
                      std::to_string(nprocs) + " ranks on " +
                      std::to_string(platform.host_count()) +
                      " hosts): ranks sharing a core time-share across the cut");
  }
}

}  // namespace tir::ckpt
