// ReplayCursor: random access into a replay's timeline.
//
// A cursor binds one immutable trace to one scenario (platform + config +
// backend) and lets callers jump around simulated time without paying a
// full cold replay per query:
//
//   ReplayCursor cursor(trace, platform, config, backend);
//   cursor.record();                 // one cold replay, checkpoints on the way
//   cursor.save("app.titb");         //   ... persisted into the TITB v2 file
//   // or, next process:
//   cursor.adopt_file("app.titb");   // reuse previously recorded checkpoints
//   cursor.seek(120.0);              // cheap: picks the snapshot <= 120 s
//   cursor.run(125.0, &sink);        // replays only [snapshot, 125]
//   auto q = cursor.query(120, 125); // seek + run + slice the timelines
//
// The cursor holds its checkpoints as the titio::CheckpointBlock they are
// stored as, and every run hands the seated titio::TraceCheckpoint itself
// to a FRESH session (fresh engine, fresh source cursor) as
// ReplayConfig::resume — the engine is single-shot, which is what makes a
// stopped run's timeline exact (see sim::Engine::run_until).  Correctness
// bar: seek-then-replay is bitwise identical to cold replay — times,
// windowed timelines — enforced by the differential suite (tests/ckpt) on
// both back-ends.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "obs/timeline.hpp"
#include "titio/shared.hpp"

namespace tir::ckpt {

/// A windowed extraction: the run's result plus per-rank timelines sliced
/// to [from, to] (obs::slice semantics; bitwise-equal to slicing a cold
/// replay's full timeline).
struct QueryResult {
  core::ReplayResult result;
  double from = 0.0;
  double to = 0.0;
  std::vector<std::vector<obs::Interval>> timelines;  ///< per rank
};

class ReplayCursor {
 public:
  /// The platform is borrowed and must outlive the cursor; trace and config
  /// are captured by value (SharedTrace is a cheap shared handle).  The
  /// cursor drives config.resume, config.stop_time and config.sink itself
  /// and ignores the caller's values; pass a sink to run.
  ReplayCursor(titio::SharedTrace trace, const platform::Platform& platform,
               core::ReplayConfig config, core::Backend backend = core::Backend::Smpi);

  int nprocs() const { return trace_.nprocs(); }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const CheckpointBlock& checkpoints() const { return block_; }

  /// One cold replay that records checkpoints (replaces any held ones): a
  /// cut-finder sink reads each completed action from the trace itself, and
  /// once at least `action_interval` actions completed since the last
  /// checkpoint, the first balanced completion takes the next one.  Throws
  /// ConfigError when the scenario is not seekable (check_seekable).
  core::ReplayResult record(std::uint64_t action_interval = 4096);

  /// Adopt previously recorded checkpoints: the fingerprint must match this
  /// cursor's scenario (ConfigError otherwise); each checkpoint's per-rank
  /// prefix hashes are re-validated against the trace, so checkpoints
  /// recorded before a tail append still adopt cleanly while any that
  /// disagree with the actions are dropped (with a Warn log).  Returns how
  /// many checkpoints were adopted.
  std::size_t adopt(const CheckpointBlock& block);

  /// Adopt the matching block of a TITB v2 file (0 when none matches).
  std::size_t adopt_file(const std::string& path);

  /// Persist the held checkpoints into a TITB file (titio::append_checkpoints).
  /// A block without checkpoints (a trace shorter than one cut interval)
  /// leaves the file untouched; returns whether anything was written.
  bool save(const std::string& path) const;

  /// Seat the cursor on the latest snapshot with time <= t (cheap; no
  /// replay happens until run/query).  With no qualifying snapshot
  /// the cursor is cold (replays from action 0).
  void seek(double t);
  /// Back to cold.
  void reset() { current_ = nullptr; }
  /// Time of the seated snapshot (0 when cold).
  double position() const { return current_ != nullptr ? current_->time : 0.0; }

  /// Replay from the seated snapshot until the next event would pass
  /// `stop_time` (by default to quiescence) in a fresh single-shot session;
  /// `sink` observes the suffix only.
  core::ReplayResult run(double stop_time = std::numeric_limits<double>::infinity(),
                         obs::Sink* sink = nullptr);

  /// seek(from) + run(to) + slice: the windowed timeline/metrics
  /// extraction.  Throws tir::Error on an inverted window.
  QueryResult query(double from, double to);

 private:
  titio::SharedTrace trace_;
  const platform::Platform& platform_;
  core::ReplayConfig config_;
  core::Backend backend_;
  std::uint64_t fingerprint_ = 0;
  CheckpointBlock block_;
  const TraceCheckpoint* current_ = nullptr;  ///< points into block_
};

}  // namespace tir::ckpt
