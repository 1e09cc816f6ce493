// ActionSource: the pull interface both replay engines consume.
//
// A replay is per-rank sequential: each simulated rank walks its own action
// stream front to back, never looking ahead and never revisiting.  That
// access pattern is exactly what lets a reader stay bounded-memory, so the
// interface is one per-rank cursor: `next(rank, out)`.  The engines no
// longer care whether the actions live in RAM (MemorySource over the
// classic tit::Trace) or stream off disk a frame at a time (titio::Reader).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/error.hpp"
#include "tit/trace.hpp"

namespace tir::titio {

class ActionSource {
 public:
  virtual ~ActionSource() = default;

  virtual int nprocs() const = 0;

  /// Pull `rank`'s next action into `out`; false once that rank's stream is
  /// exhausted. Ranks have independent cursors and may be pulled in any
  /// interleaving (the engines interleave them per simulated event).
  virtual bool next(int rank, tit::Action& out) = 0;

  /// Actions known to exist but not delivered because the source dropped
  /// damaged data (corrupt-frame recovery). Replay surfaces this as
  /// ReplayResult::degraded so callers can distinguish a clean replay from
  /// a best-effort one. Sources without a recovery mode report 0.
  virtual std::uint64_t skipped_actions() const { return 0; }

  /// Reset every rank cursor to the start of the stream so the same source
  /// object can feed another replay.  Single-pass sources (the streaming
  /// titio::Reader) cannot restart and keep the default, which throws
  /// ConfigError.
  virtual void rewind() {
    throw ConfigError(
        "this ActionSource was already consumed by a previous replay and "
        "cannot be rewound; open a fresh source (or use a rewindable one: "
        "MemorySource, SharedTrace cursors)");
  }

  /// Called by the replay session when it starts consuming this source.
  /// The first session streams from wherever the cursors stand; any later
  /// session rewinds first, so reusing an exhausted source either works
  /// (rewindable sources) or fails with ConfigError — never silently
  /// replays zero actions into a bogus 0-second prediction.
  void begin_session() {
    if (session_started_) rewind();
    session_started_ = true;
  }

  /// Position every rank cursor at `positions[rank]` actions from the start
  /// (checkpoint restore; src/ckpt).  The next session then streams the
  /// suffix instead of rewinding — seek() arms exactly one such session.
  /// Sources that cannot reposition keep the default do_seek, which throws
  /// ConfigError.
  void seek(const std::vector<std::uint64_t>& positions) {
    do_seek(positions);
    session_started_ = false;
  }

 protected:
  virtual void do_seek(const std::vector<std::uint64_t>& /*positions*/) {
    throw ConfigError(
        "this ActionSource cannot seek; checkpoint restore needs a "
        "repositionable source (MemorySource, SharedTrace cursors)");
  }

  /// Shared bounds check for repositionable sources.
  static void check_seek(const std::vector<std::uint64_t>& positions, int nprocs,
                         const std::vector<std::size_t>& limits) {
    if (positions.size() != static_cast<std::size_t>(nprocs)) {
      throw ConfigError("seek positions cover " + std::to_string(positions.size()) +
                        " ranks, trace has " + std::to_string(nprocs));
    }
    for (std::size_t r = 0; r < positions.size(); ++r) {
      if (positions[r] > limits[r]) {
        throw ConfigError("seek position " + std::to_string(positions[r]) + " past rank p" +
                          std::to_string(r) + "'s " + std::to_string(limits[r]) + " actions");
      }
    }
  }

 private:
  bool session_started_ = false;
};

/// The in-memory cursor: per-rank indices into a fully materialized Trace,
/// rewindable and seekable.  It either borrows the trace (which must then
/// outlive it, unmodified) or shares ownership of it (SharedTrace::cursor);
/// a shared one also reports the actions the trace's load dropped to
/// corrupt-frame recovery, so each session's ReplayResult::degraded flag
/// reflects the state of the one decoded copy.
class MemorySource final : public ActionSource {
 public:
  explicit MemorySource(const tit::Trace& trace) { index(trace); }
  MemorySource(std::shared_ptr<const tit::Trace> trace, std::uint64_t load_skipped)
      : owner_(std::move(trace)), load_skipped_(load_skipped) {
    index(*owner_);
  }

  int nprocs() const override { return static_cast<int>(seqs_.size()); }

  bool next(int rank, tit::Action& out) override {
    const std::vector<tit::Action>& seq = *seqs_[static_cast<std::size_t>(rank)];
    std::size_t& i = pos_[static_cast<std::size_t>(rank)];
    if (i >= seq.size()) return false;
    out = seq[i++];
    return true;
  }

  std::uint64_t skipped_actions() const override { return load_skipped_; }

  void rewind() override { pos_.assign(pos_.size(), 0); }

 protected:
  void do_seek(const std::vector<std::uint64_t>& positions) override {
    std::vector<std::size_t> limits(seqs_.size());
    for (std::size_t r = 0; r < limits.size(); ++r) limits[r] = seqs_[r]->size();
    check_seek(positions, nprocs(), limits);
    for (std::size_t r = 0; r < pos_.size(); ++r) {
      pos_[r] = static_cast<std::size_t>(positions[r]);
    }
  }

 private:
  /// Per-rank sequences resolved once: next() runs once per replayed
  /// action, so an out-of-line Trace::actions lookup there is pure overhead.
  void index(const tit::Trace& trace) {
    for (int r = 0; r < trace.nprocs(); ++r) seqs_.push_back(&trace.actions(r));
    pos_.assign(seqs_.size(), 0);
  }

  std::shared_ptr<const tit::Trace> owner_;  ///< null when borrowing
  std::uint64_t load_skipped_ = 0;
  std::vector<const std::vector<tit::Action>*> seqs_;
  std::vector<std::size_t> pos_;
};

}  // namespace tir::titio
