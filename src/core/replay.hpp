// Time-Independent Trace replay: core::replay is the one entry point.
//
// Two back-ends, matching the paper's before/after:
//
//   Backend::Msg  - the FIRST implementation ([5], paper §2.4/§3.3): built
//                   on the MSG-style CSP layer.  Small (<64 KiB) sends become
//                   fire-and-forget isends into a "<src>_<dst>" mailbox,
//                   large sends block; either way the transfer starts only
//                   at match time, the network model has no piecewise
//                   corrections, and collectives are monolithic analytic
//                   delays.
//
//   Backend::Smpi - the NEW implementation (paper §3.3): actions are handed
//                   to the simulated MPI runtime, inheriting the detached
//                   eager mode, the rendezvous protocol, the piecewise-linear
//                   network model and point-to-point collective algorithms.
//                   This is the `smpi_replay` program of the paper: load the
//                   trace, run the actions, report the simulated time.
//
// Both engines price `compute` actions at a calibrated instruction rate
// (see calibration.hpp) rather than the platform's nominal speed.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "obs/sink.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "smpi/config.hpp"
#include "tit/trace.hpp"
#include "titio/shared.hpp"
#include "titio/source.hpp"

namespace tir::core {

/// Once-per-key warning gate shared across replay sessions (a sweep
/// replays one trace under N configs; config warnings would otherwise
/// repeat N times).  Thread-safe: sweep workers share one instance.
class WarningDedupe {
 public:
  /// True exactly once per distinct warning text.
  bool first(const std::string& text) {
    const std::lock_guard<std::mutex> lock(mu_);
    return seen_.insert(text).second;
  }

 private:
  std::mutex mu_;
  std::set<std::string> seen_;
};

struct ReplayConfig {
  /// Calibrated instruction rate (instr/s); one entry = uniform, or one per
  /// rank for heterogeneous acquisitions.
  std::vector<double> rates = {1e9};
  sim::Sharing sharing = sim::Sharing::Uncontended;
  /// New back-end only: the SMPI protocol/network model.
  smpi::Config mpi{};
  /// Wall-clock budget for the whole replay (host seconds); 0 disables.
  /// On expiry the replay is cancelled gracefully with WatchdogError.
  double watchdog_seconds = 0.0;
  /// Observability event sink (src/obs); not owned, must outlive the replay
  /// call.  Null (the default) disables event emission entirely: the hook
  /// points collapse to a raw-pointer check (bench/bench_gates bars even the
  /// cost of an attached no-op sink at 1.05x the no-sink replay time).
  /// Attach an obs::TimelineSink to
  /// record the per-rank schedule, then feed it to obs::aggregate /
  /// obs::write_paje / obs::critical_path (see docs/observability.md).
  obs::Sink* sink = nullptr;

  /// Resume from a consistent cut of a previous replay of the same scenario
  /// instead of replaying from action 0 (src/ckpt records these; null
  /// replays cold): each rank's cursor skips to its position, its
  /// collective-site counter restarts at its count, and it sleeps to its
  /// boundary time before pulling the first suffix action.  Not owned, must
  /// outlive the call.  The source must be seekable
  /// (titio::ActionSource::seek).
  const titio::TraceCheckpoint* resume = nullptr;

  /// Stop the simulation once the next event would fire past this time
  /// (events exactly at stop_time still fire).  A stopped replay reports
  /// reached_end = false and simulated_time = stop_time.  Default: run to
  /// quiescence.
  double stop_time = std::numeric_limits<double>::infinity();

  /// Cross-session warning gate: when set, each distinct config warning is
  /// logged/sinked once per dedupe instance rather than once per session
  /// (core::sweep installs one per sweep).  Not owned.
  WarningDedupe* warning_dedupe = nullptr;

  /// Cross-check the config against the trace before spawning anything:
  /// every rate must be finite and > 0 and a per-rank rate vector must
  /// cover every rank (throws ConfigError naming the mismatch), and a
  /// vector *longer* than the rank count is reported as a warning through
  /// the log and the attached sink — extra entries are silently
  /// unreachable by rate_for(), which usually means a miswired
  /// heterogeneous calibration.  Both replay engines call this first (via
  /// core::ReplaySession).
  void check(int nprocs) const;

  double rate_for(int rank) const {
    if (rates.size() == 1) return rates[0];
    if (rank < 0 || static_cast<std::size_t>(rank) >= rates.size()) {
      throw ConfigError("no calibrated rate for rank p" + std::to_string(rank) +
                        " (rate vector has " + std::to_string(rates.size()) + " entries)");
    }
    return rates[static_cast<std::size_t>(rank)];
  }
};

struct ReplayResult {
  double simulated_time = 0.0;       ///< the prediction (seconds)
  std::uint64_t actions_replayed = 0;
  std::uint64_t engine_steps = 0;
  double wall_clock_seconds = 0.0;   ///< replay efficiency (host time)
  /// Best-effort summary: actions the source dropped to corrupt-frame
  /// recovery (titio::ReaderOptions::recover). A degraded prediction is
  /// still a prediction, but callers choosing strict semantics must check
  /// this before trusting simulated_time.
  std::uint64_t skipped_actions = 0;
  bool degraded = false;
  /// False when the run stopped on ReplayConfig::stop_time before reaching
  /// quiescence (simulated_time is then the stop time, not the prediction).
  bool reached_end = true;
};

/// The two replay back-ends as a runtime-selectable value: what a sweep
/// Scenario carries and what replay() dispatches on.
enum class Backend {
  Smpi,  ///< the paper's improved framework (replay_smpi.cpp)
  Msg,   ///< the paper's first prototype, kept as the baseline (replay_msg.cpp)
};

inline const char* backend_name(Backend b) { return b == Backend::Msg ? "msg" : "smpi"; }

/// Replay a trace and predict its simulated time: the one entry point of
/// both back-ends.  The engines pull actions on demand through the source,
/// so replay memory is bounded by the source (a streaming titio::Reader
/// never materializes the trace).  Rank r runs on host r % host_count
/// (platform::place_ranks); a platform without hosts is a ConfigError.
ReplayResult replay(Backend backend, titio::ActionSource& source,
                    const platform::Platform& platform, const ReplayConfig& config);

/// replay() from a materialized trace, streamed from RAM.
inline ReplayResult replay(Backend backend, const tit::Trace& trace,
                           const platform::Platform& platform, const ReplayConfig& config) {
  titio::MemorySource source(trace);
  return replay(backend, source, platform, config);
}

/// replay() from a shared decoded trace (one fresh cursor): what a service
/// calls after a cache hit, with no re-decode.
inline ReplayResult replay(Backend backend, const titio::SharedTrace& trace,
                           const platform::Platform& platform, const ReplayConfig& config) {
  titio::SharedTrace::Cursor cursor = trace.cursor();
  return replay(backend, cursor, platform, config);
}

}  // namespace tir::core
