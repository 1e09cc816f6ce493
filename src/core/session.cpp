#include "core/session.hpp"

#include <cmath>

#include "base/log.hpp"

namespace tir::core {

void ReplayConfig::check(int nprocs) const {
  if (rates.empty()) throw ConfigError("replay rate vector is empty");
  if (rates.size() > 1 && rates.size() < static_cast<std::size_t>(nprocs)) {
    throw ConfigError("replay has " + std::to_string(nprocs) + " ranks but only " +
                      std::to_string(rates.size()) +
                      " calibrated rates (need 1 or >= nprocs)");
  }
  for (std::size_t r = 0; r < rates.size(); ++r) {
    if (!(rates[r] > 0.0) || !std::isfinite(rates[r])) {
      throw ConfigError("calibrated rate for rank p" + std::to_string(r) +
                        " is not positive and finite: " + std::to_string(rates[r]));
    }
  }
  if (nprocs > 0 && rates.size() > 1 && rates.size() > static_cast<std::size_t>(nprocs)) {
    const std::string text =
        "replay has " + std::to_string(rates.size()) + " calibrated rates for only " +
        std::to_string(nprocs) + " ranks; the extra " +
        std::to_string(rates.size() - static_cast<std::size_t>(nprocs)) +
        " entrie(s) are unreachable (miswired heterogeneous calibration?)";
    if (warning_dedupe == nullptr || warning_dedupe->first(text)) {
      TIR_LOG(Warn, text);
      if (sink != nullptr) sink->on_warning(text);
    }
  }
}

ReplaySession::ReplaySession(titio::ActionSource& source, const platform::Platform& platform,
                             const ReplayConfig& config, sim::Resolve resolve)
    : source_(source),
      config_(config),
      t0_(std::chrono::steady_clock::now()),
      nprocs_(source.nprocs()) {
  config_.check(nprocs_);
  rank_hosts_ = platform::place_ranks(platform, nprocs_);
  if (config_.resume != nullptr) {
    const ResumeState& r = *config_.resume;
    if (r.positions.size() != static_cast<std::size_t>(nprocs_) ||
        r.times.size() != r.positions.size() ||
        r.collective_sites.size() != r.positions.size()) {
      throw ConfigError("resume state covers " + std::to_string(r.positions.size()) +
                        " ranks, trace has " + std::to_string(nprocs_));
    }
    // seek() also arms the source so begin_session() below does not rewind
    // the cursors back to 0.
    source_.seek(r.positions);
  }
  source_.begin_session();
  engine_ = std::make_unique<sim::Engine>(
      platform,
      sim::EngineConfig{config_.sharing, config_.watchdog_seconds, config_.sink, resolve});
}

ReplayResult ReplaySession::finish() {
  ReplayResult result;
  result.reached_end = engine_->run_until(config_.stop_time);
  result.simulated_time = engine_->now();
  result.actions_replayed = actions_;
  result.engine_steps = engine_->steps();
  result.skipped_actions = source_.skipped_actions();
  result.degraded = result.skipped_actions > 0;
  result.wall_clock_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  return result;
}

void check_p2p_partner(int me, int nprocs, const tit::Action& a) {
  if (a.partner < 0 || a.partner >= nprocs) {
    throw MalformedTraceError("p" + std::to_string(me) +
                              ": partner out of range: " + tit::to_line(a));
  }
  if (a.partner == me) {
    throw MalformedTraceError("p" + std::to_string(me) + ": self-message: " + tit::to_line(a));
  }
}

namespace {

ReplayResult dispatch(Backend backend, titio::ActionSource& source,
                      const platform::Platform& platform, const ReplayConfig& config,
                      sim::Resolve resolve) {
  return backend == Backend::Msg ? replay_msg(source, platform, config, resolve)
                                 : replay_smpi(source, platform, config, resolve);
}

}  // namespace

ReplayResult replay(Backend backend, titio::ActionSource& source,
                    const platform::Platform& platform, const ReplayConfig& config) {
  return dispatch(backend, source, platform, config, sim::Resolve::Incremental);
}

ReplayResult replay_full_resolve(Backend backend, titio::ActionSource& source,
                                 const platform::Platform& platform, const ReplayConfig& config) {
  return dispatch(backend, source, platform, config, sim::Resolve::Full);
}

}  // namespace tir::core
