// Checkpointing of Time-Independent Trace replays (docs/architecture.md).
//
// Coroutine frames cannot be serialized, so a checkpoint is not a dump of
// engine state: it is a **consistent cut** — a per-rank position in the
// action stream at which nothing is in flight between ranks, captured
// together with each rank's boundary time.  Restoring is then re-creating
// the world from scratch and having every rank (a) skip its completed
// prefix via titio::ActionSource::seek and (b) sleep to its boundary time
// before pulling the first suffix action.  Because replayed phases are
// contiguous per rank (each action begins exactly when its predecessor
// ends) and the cut guarantees no cross-rank message or collective
// straddles it, the suffix re-executes at bitwise-identical simulated
// times (the differential suite in tests/ckpt enforces exactly that).
//
// A cut is valid iff, over *completed* actions:
//   * every (src, dst) pair has sent == received (no p2p in flight);
//   * no rank has an outstanding nonblocking request (mirror of the
//     engines' own request queues);
//   * every rank has passed the same number of collective sites (a rank
//     completes a collective only after receiving everything it needed,
//     so equality means no collective-internal traffic is in flight).
//
// The cut-finder (private to ReplayCursor::record, cursor.cpp) is a plain
// obs::Sink with one hook, on_phase_end.  A time-independent trace has no
// timestamps, so a rank's position is just its count of completed actions
// and the k-th completion of rank r is trace.actions(r)[k] of the trace
// being recorded.  Counters update at each completion in O(1), and once at
// least `action_interval` actions completed since the last checkpoint, the
// first balanced completion takes a snapshot.
//
// Seekability gate (check_seekable): restore is only exact when the
// prefix cannot interfere with the suffix through shared resources —
// sim::Sharing::Uncontended (a prefix transfer overlapping a suffix
// transfer would change max-min rates) and nprocs <= host_count (ranks
// sharing a core would time-share across the cut).
#pragma once

#include <cstdint>
#include <vector>

#include "core/replay.hpp"
#include "titio/ckpt_records.hpp"

namespace tir::ckpt {

using titio::CheckpointBlock;
using titio::CkptRankState;
using titio::TraceCheckpoint;

/// Latest checkpoint of `block` with time <= t, or null when none qualifies
/// (cold replay from action 0 is then the only way to reach t).
const TraceCheckpoint* nearest_before(const CheckpointBlock& block, double t);

/// Identity of everything that shapes simulated times: backend, sharing
/// mode, calibrated rates, the SMPI protocol/network model, and the
/// platform (hosts, links, loopback, and the topology routes are resolved
/// over: host and switch attachment, explicit routes).  Deliberately
/// EXCLUDES knobs that cannot change the prediction (resolve strategy —
/// bit-identical by contract, watchdog, sink, resume/stop).  Checkpoints recorded under one
/// fingerprint are only ever restored under the same one.
std::uint64_t scenario_fingerprint(core::Backend backend, const platform::Platform& platform,
                                   const core::ReplayConfig& config);

/// Seed of the per-rank prefix hash: a running titio::fold_action_hash of
/// one rank's replayed action prefix, which validates that a checkpoint
/// still matches a (possibly tail-appended) trace.  Domain-tagged.
std::uint64_t prefix_hash_seed();

/// Throws ConfigError unless restore-from-cut is exact for this scenario:
/// requires sim::Sharing::Uncontended and nprocs <= platform.host_count().
void check_seekable(int nprocs, const platform::Platform& platform,
                    const core::ReplayConfig& config);

}  // namespace tir::ckpt
