// Core-internal replay plumbing: ReplaySession, the two back-end functions
// behind core::replay, and the full re-solve seam.  Nothing outside
// src/core includes this header except the tests and the bench that
// compare the incremental kernel against its reference.
//
// ReplaySession is the shared prologue/epilogue of both replay back-ends:
// config cross-check, rank placement, source freshness (rewind or fail),
// watchdog arming, engine construction, run, and ReplayResult assembly
// including degraded-source accounting.  A back-end is reduced to its
// protocol-specific part — build the protocol state, spawn one actor per
// rank — between a constructor call and finish().
//
//   ReplaySession session(source, platform, config, resolve);  // prologue
//   <build protocol state over session.engine(), spawn ranks>
//   return session.finish();                                    // run + epilogue
//
// Reentrancy contract (the basis of core::Sweep): a session owns its
// sim::Engine and touches no global mutable state, so any number of
// sessions may run concurrently on distinct threads as long as each has its
// own ActionSource (titio::SharedTrace::cursor()), its own obs::Sink (or
// none), and a const-shared platform::Platform.  One session is itself
// strictly single-threaded, which is what keeps every scenario's result
// bit-identical regardless of how many sessions run beside it.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "core/replay.hpp"

namespace tir::core {

class ReplaySession {
 public:
  /// Prologue: validates the config against the source (ReplayConfig::check,
  /// including the extra-rates warning), places the ranks
  /// (platform::place_ranks: ConfigError on a host-less platform), rewinds
  /// an already-consumed rewindable source (or throws ConfigError for
  /// single-pass ones), and constructs the engine with the watchdog armed,
  /// the sink attached and the given solver strategy.  The source, platform
  /// and config must outlive the session.
  ReplaySession(titio::ActionSource& source, const platform::Platform& platform,
                const ReplayConfig& config, sim::Resolve resolve);

  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  sim::Engine& engine() { return *engine_; }
  titio::ActionSource& source() { return source_; }
  const ReplayConfig& config() const { return config_; }
  int nprocs() const { return nprocs_; }
  /// Host of each rank, decided once for both back-ends.
  const std::vector<platform::HostId>& rank_hosts() const { return rank_hosts_; }

  /// Counter the per-rank actor bodies bump once per replayed action;
  /// finish() folds it into ReplayResult::actions_replayed.
  std::uint64_t& actions_replayed() { return actions_; }

  /// Epilogue: run the engine to quiescence and assemble the ReplayResult
  /// (prediction, step/action counts, degraded-source accounting, host
  /// wall-clock since the prologue).  Call exactly once.
  ReplayResult finish();

 private:
  titio::ActionSource& source_;
  const ReplayConfig& config_;
  std::chrono::steady_clock::time_point t0_;
  int nprocs_;
  std::vector<platform::HostId> rank_hosts_;
  std::uint64_t actions_ = 0;
  std::unique_ptr<sim::Engine> engine_;
};

/// Spot check on a streamed point-to-point action that static validation
/// cannot cover (a streaming source is never materialized, so replay is the
/// first place the whole action is visible): the partner must be another
/// rank of the trace.  Throws MalformedTraceError.
void check_p2p_partner(int me, int nprocs, const tit::Action& a);

/// The back-ends behind core::replay (replay_smpi.cpp, replay_msg.cpp).
ReplayResult replay_smpi(titio::ActionSource& source, const platform::Platform& platform,
                         const ReplayConfig& config, sim::Resolve resolve);
ReplayResult replay_msg(titio::ActionSource& source, const platform::Platform& platform,
                        const ReplayConfig& config, sim::Resolve resolve);

/// Test and bench seam: core::replay with every max-min flow re-solved at
/// every step (sim::Resolve::Full, docs/simulation_kernel.md).  It exists
/// only as the reference the incremental kernel must match bit for bit
/// (IncrementalReplayDifferential) and the baseline of its speed gate
/// (bench/bench_gates); core::replay always solves incrementally.
ReplayResult replay_full_resolve(Backend backend, titio::ActionSource& source,
                                 const platform::Platform& platform, const ReplayConfig& config);

}  // namespace tir::core
