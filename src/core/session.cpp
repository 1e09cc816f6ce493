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
  source_.begin_session();
  if (const titio::TraceCheckpoint* resume = config_.resume) {
    if (resume->ranks.size() != static_cast<std::size_t>(nprocs_)) {
      throw ConfigError("resume checkpoint covers " + std::to_string(resume->ranks.size()) +
                        " ranks, trace has " + std::to_string(nprocs_));
    }
    source_.seek(resume->ranks);
  }
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

void check_collective_root(int me, int nprocs, const tit::Action& a) {
  if (a.partner >= nprocs) {
    throw MalformedTraceError("p" + std::to_string(me) +
                              ": root out of range: " + tit::to_line(a));
  }
}

void ReplaySession::spawn_ranks(const std::function<sim::Coro(sim::Ctx&, int)>& body) {
  for (int r = 0; r < nprocs_; ++r) {
    engine_->spawn("rank" + std::to_string(r), rank_hosts_[static_cast<std::size_t>(r)], 0,
                   [body, r](sim::Ctx& ctx) -> sim::Coro { return body(ctx, r); });
  }
}

std::string mailbox_name(int src, int dst) {
  return std::to_string(src) + "_" + std::to_string(dst);
}

std::string describe(const RankDiag& diag) {
  std::string s = "blocked";
  if (diag.current != nullptr) {
    const tit::Action& a = *diag.current;
    switch (a.type) {
      case tit::ActionType::Send:
      case tit::ActionType::Isend:
      case tit::ActionType::Recv:
      case tit::ActionType::Irecv:
        s += " on ";
        if (diag.backend == Backend::Msg) {
          // Append-built: GCC 12's -Wrestrict misfires on operator+ chains.
          const bool out = a.type == tit::ActionType::Send || a.type == tit::ActionType::Isend;
          s += "mailbox ";
          s += out ? mailbox_name(diag.rank, a.partner) : mailbox_name(a.partner, diag.rank);
          s += ": ";
        }
        s += tit::to_line(a);
        break;
      case tit::ActionType::Wait:
        s += " on wait (oldest of " + std::to_string(diag.requests) +
             " outstanding request(s))";
        break;
      case tit::ActionType::WaitAll:
        s += " on waitall (" + std::to_string(diag.requests) + " outstanding request(s))";
        break;
      default:
        if (tit::is_collective(a.type)) {
          s += " on collective site " + std::to_string(diag.site) + ": " + tit::to_line(a);
        }
        break;
    }
  }
  if (diag.completed > 0) {
    s += "; last completed: " + tit::to_line(*diag.last) + " (action #" +
         std::to_string(diag.completed - 1) + ")";
  } else {
    s += "; no action completed yet";
  }
  return s;
}

RankShell::RankShell(sim::Ctx& ctx, int me, ReplaySession& session, Backend backend)
    : ctx_(ctx),
      source_(session.source()),
      sink_(session.config().sink),
      actions_(session.actions_replayed()),
      nprocs_(session.nprocs()),
      rate_(session.config().rate_for(me)) {
  diag_.rank = me;
  diag_.backend = backend;
  if (const titio::TraceCheckpoint* resume = session.config().resume) {
    // Checkpoint restore: the prefix already ran.  Adopt its collective-site
    // numbering and hold the rank at its boundary time.
    const titio::CkptRankState& cut = resume->ranks[static_cast<std::size_t>(me)];
    next_site_ = cut.collective_sites;
    resume_sleep_ = cut.time;
  }
  ctx.set_diagnoser([this] { return describe(diag_); });
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
