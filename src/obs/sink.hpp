// Observability event sink: the interface the simulation stack reports to.
//
// The simulation layers (sim::Engine, the msg/smpi protocol layers, both
// replay back-ends) emit typed simulated-time events through an obs::Sink
// when — and only when — one is attached.  Every hook point is guarded by a
// raw-pointer check (`if (sink) sink->...`), so a replay with no sink pays a
// predicted-not-taken branch and nothing else: no virtual dispatch on hot
// paths, no allocation, no formatting.  bench/bench_gates bounds the cost
// of attaching a no-op sink, which pays the guard plus the per-step virtual
// dispatch and the transfer-list walk: its replay may take at most 1.05x
// the no-sink replay time (the incremental kernel shrank the per-step
// baseline severalfold, so a handful of indirect calls is no longer
// sub-1%; see docs/simulation_kernel.md).
//
// Two families of events:
//
//   * engine events — actor lifecycle, activity start/finish, time advance,
//     per-step communication progress (the rates the max-min solver or the
//     uncontended model assigned).  These carry simulation-level identity
//     (actor index, activity kind/seq, link ids).
//
//   * rank phase events — emitted by the replay back-ends around each
//     replayed action: the rank entered a compute / send / recv / wait /
//     collective phase at simulated time t, with its payload bytes, partner
//     rank, and collective site.  Phases of one rank are contiguous (a rank
//     consumes zero simulated time between actions), which is what lets
//     consumers rebuild a gap-free per-rank state timeline.
//
// This header is intentionally dependency-light (platform ids only): it is
// included by tir_sim, which must not depend on the trace or replay layers.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "platform/platform.hpp"

namespace tir::obs {

/// What a rank is doing, as seen by the replay back-ends.  `Idle` is never
/// emitted by a back-end; consumers use it for the tail between a rank's
/// last action and the end of the simulation.
enum class RankState : std::uint8_t { Compute, Send, Recv, Wait, Collective, Idle };

inline const char* rank_state_name(RankState s) {
  switch (s) {
    case RankState::Compute: return "compute";
    case RankState::Send: return "send";
    case RankState::Recv: return "recv";
    case RankState::Wait: return "wait";
    case RankState::Collective: return "collective";
    case RankState::Idle: return "idle";
  }
  return "?";
}

inline constexpr std::size_t kRankStateCount = 6;

/// One rank phase beginning: everything the back-end knows about the action
/// it is about to replay.  `op` points at a static string (the trace action
/// name, e.g. "allreduce"); it stays valid for the program's lifetime.
struct PhaseEvent {
  int rank = -1;
  RankState state = RankState::Compute;
  const char* op = nullptr;   ///< action name; never null when emitted
  double bytes = 0.0;         ///< payload bytes (p2p/collective), else 0
  double bytes2 = 0.0;        ///< second volume (reduction instructions, ...)
  int partner = -1;           ///< peer rank (p2p) or root (rooted collectives)
  std::int64_t site = -1;     ///< collective site number, -1 for non-collectives
};

/// Activity kinds, mirroring sim::Activity::Kind without including it.
enum class ActivityKind : std::uint8_t { Exec, Comm, Timer, Gate };

class Sink {
 public:
  virtual ~Sink() = default;

  // --- engine events ------------------------------------------------------
  /// An actor was spawned (before the simulation starts running).
  virtual void on_actor_spawn(int /*actor*/, std::string_view /*name*/,
                              platform::HostId /*host*/) {}
  /// An actor's coroutine completed at simulated time `now`.
  virtual void on_actor_done(int /*actor*/, double /*now*/) {}
  /// An activity entered the running set at simulated time `now`.
  virtual void on_activity_start(ActivityKind /*kind*/, std::uint64_t /*seq*/,
                                 double /*now*/) {}
  /// An activity completed at simulated time `now`.
  virtual void on_activity_finish(ActivityKind /*kind*/, std::uint64_t /*seq*/,
                                  double /*now*/) {}
  /// Simulated time advanced by `dt` to `now` (one engine step).
  virtual void on_time_advance(double /*now*/, double /*dt*/) {}
  /// A communication moved `rate * dt` bytes across `links` during the step
  /// that just advanced time to `now`.  `rate` is whatever the sharing model
  /// assigned (the max-min solver's fair share in contention mode).  Called
  /// once per transferring communication per step; `links` is empty for
  /// loopback traffic.
  virtual void on_comm_progress(std::span<const platform::LinkId> /*links*/,
                                double /*rate*/, double /*dt*/) {}
  /// The simulation stopped (normally or abnormally) with final time `now`.
  /// Always the last event.
  virtual void on_sim_end(double /*now*/) {}

  // --- protocol-layer events ----------------------------------------------
  /// The SMPI layer issued a point-to-point message (including collective-
  /// internal traffic, flagged by `collective`).  `eager` is the protocol
  /// truth, not a size-threshold guess by the consumer.
  virtual void on_message(int /*src*/, int /*dst*/, double /*bytes*/, bool /*eager*/,
                          bool /*collective*/) {}
  /// The MSG layer matched a sender and a receiver on `mailbox`.
  virtual void on_mailbox_match(std::string_view /*mailbox*/, double /*bytes*/) {}

  // --- rank phase events (replay back-ends) -------------------------------
  /// Rank `e.rank` entered phase `e.state` at simulated time `now`.
  virtual void on_phase_begin(const PhaseEvent& /*e*/, double /*now*/) {}
  /// The phase opened by the last on_phase_begin for `rank` ended at `now`.
  virtual void on_phase_end(int /*rank*/, double /*now*/) {}

  /// A non-fatal configuration/replay warning (e.g. a calibrated-rate vector
  /// longer than the rank count): the replay proceeds, but the condition is
  /// worth surfacing next to the run's other observability output.  Also
  /// mirrored to the log at Warn level by the emitter.
  virtual void on_warning(std::string_view /*text*/) {}

  // --- failure diagnosis ---------------------------------------------------
  /// A deadlock/watchdog report is being assembled: `text` is the per-actor
  /// wait-for diagnosis line (the diagnoser callbacks of PR 2), routed here
  /// so a wedged replay's last-known per-rank state lands in the same
  /// timeline/JSON as the events.  Emitted once per blocked actor, just
  /// before the engine throws.
  virtual void on_diagnosis(int /*actor*/, std::string_view /*name*/,
                            std::string_view /*text*/, double /*now*/) {}
};

/// The no-op sink: every hook inherits the empty default.  Attaching one is
/// how the bench measures the cost of dispatch alone.
class NullSink final : public Sink {};

}  // namespace tir::obs
