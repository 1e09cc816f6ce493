// Core-internal replay plumbing: ReplaySession, the two back-end functions
// behind core::replay, and the full re-solve seam.  Nothing outside
// src/core includes this header except the tests and the bench that
// compare the incremental kernel against its reference.
//
// ReplaySession is the shared prologue/epilogue of both replay back-ends:
// config cross-check, rank placement, source freshness (rewind or fail),
// watchdog arming, engine construction, run, and ReplayResult assembly
// including degraded-source accounting.  RankShell is the shared per-rank
// half: pulling and counting actions, phase events, collective-site
// numbering, checkpoint resume, the outstanding-request queue and the
// deadlock diagnosis.  A back-end is reduced to its protocol state and one
// switch over action types:
//
//   ReplaySession session(source, platform, config, resolve);  // prologue
//   <build protocol state over session.engine()>
//   session.spawn_ranks(...);  // per rank: RankShell shell(ctx, me, session, backend);
//                              //   if (shell.resume_sleep() > 0) co_await ctx.sleep(...);
//                              //   while (shell.next()) switch (shell.action().type) ...
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
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "obs/replay_events.hpp"

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

  /// Counter RankShell::next bumps once per replayed action; finish() folds
  /// it into ReplayResult::actions_replayed.
  std::uint64_t& actions_replayed() { return actions_; }

  /// Spawn one actor "rank<r>" per rank on its placed host, core 0, running
  /// body(ctx, r).
  void spawn_ranks(const std::function<sim::Coro(sim::Ctx&, int)>& body);

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

/// Spot checks on a streamed action that static validation cannot cover (a
/// streaming source is never materialized, so replay is the first place the
/// whole action is visible).  Both throw MalformedTraceError.
/// Point-to-point: the partner must be another rank of the trace.
void check_p2p_partner(int me, int nprocs, const tit::Action& a);
/// Rooted collective: the root must be a rank of the trace (a negative root
/// is the text format's "root omitted", replayed as root 0).
void check_collective_root(int me, int nprocs, const tit::Action& a);

/// The MSG back-end's mailbox for messages src -> dst: "<src>_<dst>".
std::string mailbox_name(int src, int dst);

/// What a rank is doing, for the engine's deadlock/watchdog diagnosis.
/// Plain data on purpose: formatting text per action would dominate the
/// replay hot loop, so RankShell only points at the action in progress and
/// describe() renders the line on the rare path that needs it.  The engine
/// reads it only while the rank's actor is suspended, so its frame is alive.
/// The pointers reach into the rank's current batch; `last` is re-pointed at
/// the `held` copy before a pull ends that batch.
struct RankDiag {
  int rank = 0;
  Backend backend = Backend::Smpi;      ///< MSG names the mailbox p2p blocks on
  const tit::Action* current = nullptr; ///< the action in progress, if any
  const tit::Action* last = nullptr;    ///< the last completed action, if any
  tit::Action held{};                   ///< `last` across a batch boundary
  std::uint64_t completed = 0;          ///< actions completed
  std::uint64_t site = 0;               ///< collective site of `current`
  std::uint64_t requests = 0;           ///< outstanding requests when a wait began
};

/// "blocked on <what>; last completed: <action> (action #k)".
std::string describe(const RankDiag& diag);

/// The per-rank bookkeeping both back-ends share, living in the rank's
/// coroutine frame.  Construction registers the diagnoser and adopts a
/// checkpoint's collective-site numbering and boundary time; next() closes
/// the previous action's phase, steps to the next action of the current
/// batch (pulling a new batch when it runs out) and counts it, opens its
/// phase, numbers collective sites (the static validator's numbering) and
/// runs the spot checks.  The back-end's switch then replays action().
class RankShell {
 public:
  RankShell(sim::Ctx& ctx, int me, ReplaySession& session, Backend backend);
  RankShell(const RankShell&) = delete;
  RankShell& operator=(const RankShell&) = delete;

  /// Calibrated instruction rate of this rank.
  double rate() const { return rate_; }
  /// Simulated time to hold the rank before its first action: a checkpoint
  /// restore's boundary time (timer 0 + t is exact, so every resumed phase
  /// begins at a bitwise-identical time), 0 for a cold replay.
  double resume_sleep() const { return resume_sleep_; }
  const tit::Action& action() const { return *diag_.current; }

  /// False once the rank's stream is exhausted.
  bool next();

  /// Nonblocking requests in issue order (wait takes the oldest).
  void push_request(sim::ActivityPtr r) { requests_.push_back(r); }
  bool has_request() const { return !requests_.empty(); }
  sim::ActivityPtr pop_request() {
    const sim::ActivityPtr r = requests_.front();
    requests_.pop_front();
    return r;
  }

 private:
  sim::Ctx& ctx_;
  titio::ActionSource& source_;
  obs::Sink* const sink_;
  std::uint64_t& actions_;
  const int nprocs_;
  double rate_;
  double resume_sleep_ = 0.0;
  std::uint64_t next_site_ = 0;
  std::deque<sim::ActivityPtr> requests_;
  RankDiag diag_;
  const tit::Action* at_ = nullptr;   ///< next action of the current batch
  const tit::Action* end_ = nullptr;  ///< end of the current batch
};

inline bool RankShell::next() {
  if (diag_.current != nullptr) {
    if (sink_ != nullptr) sink_->on_phase_end(diag_.rank, ctx_.now());
    diag_.last = diag_.current;
    diag_.current = nullptr;
    ++diag_.completed;
  }
  if (at_ == end_) {
    // The pull below ends the batch `last` points into.
    if (diag_.last != nullptr) {
      diag_.held = *diag_.last;
      diag_.last = &diag_.held;
    }
    const std::span<const tit::Action> batch = source_.next_batch(diag_.rank);
    if (batch.empty()) return false;
    at_ = batch.data();
    end_ = batch.data() + batch.size();
  }
  diag_.current = at_++;
  ++actions_;
  const tit::Action& a = *diag_.current;
  if (sink_ != nullptr) {
    sink_->on_phase_begin(obs::phase_event(diag_.rank, a, static_cast<std::int64_t>(next_site_)),
                          ctx_.now());
  }
  switch (a.type) {
    case tit::ActionType::Send:
    case tit::ActionType::Isend:
    case tit::ActionType::Recv:
    case tit::ActionType::Irecv:
      check_p2p_partner(diag_.rank, nprocs_, a);
      break;
    case tit::ActionType::Wait:
    case tit::ActionType::WaitAll:
      diag_.requests = requests_.size();
      break;
    default:
      if (tit::is_collective(a.type)) {
        if (tit::is_rooted(a.type)) check_collective_root(diag_.rank, nprocs_, a);
        diag_.site = next_site_++;
      }
      break;
  }
  return true;
}

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
