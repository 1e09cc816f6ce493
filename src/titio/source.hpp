// ActionSource: the pull interface both replay engines consume.
//
// A replay is per-rank sequential: each simulated rank walks its own action
// stream front to back, never looking ahead and never revisiting.  That
// access pattern is exactly what lets a reader stay bounded-memory, so the
// interface is one per-rank cursor.  Its one virtual pull,
// `next_batch(rank)`, hands out a run of the rank's actions in place — the
// rank's whole remaining sequence for MemorySource, one decoded batch for
// titio::Reader — so the replay engines pay one virtual call per batch and
// copy no action.  `next(rank, out)` is a plain one-action adapter over it
// for tools and tests.  The engines no longer care whether the actions live
// in RAM (MemorySource over the classic tit::Trace) or stream off disk a
// frame at a time (titio::Reader).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "tit/trace.hpp"
#include "titio/ckpt_records.hpp"

namespace tir::titio {

class ActionSource {
 public:
  virtual ~ActionSource() = default;

  virtual int nprocs() const = 0;

  /// Pull `rank`'s next run of actions: non-empty until that rank's stream
  /// is exhausted, empty from then on.  The span stays valid until the same
  /// rank's next pull (next_batch, next, rewind or seek); other ranks' pulls
  /// leave it alone.  Ranks have independent cursors and may be pulled in
  /// any interleaving (the engines interleave them per simulated event).
  /// Errors fire at the same action index whatever the batch size: a span
  /// ends right before the action whose delivery raises one (docs/
  /// trace_format.md).
  virtual std::span<const tit::Action> next_batch(int rank) = 0;

  /// Pull `rank`'s next action into `out`; false once that rank's stream is
  /// exhausted.  Serves out of the rank's current batch.  Drain a rank
  /// through next() or through next_batch(), not both.
  bool next(int rank, tit::Action& out) {
    const auto r = static_cast<std::size_t>(rank);
    if (r >= stash_.size()) {
      stash_.resize(static_cast<std::size_t>(nprocs()));
      if (r >= stash_.size()) {
        throw Error("rank p" + std::to_string(rank) + " out of range (nprocs=" +
                    std::to_string(nprocs()) + ")");
      }
    }
    Stash& s = stash_[r];
    if (s.at == s.end) {
      const std::span<const tit::Action> batch = next_batch(rank);
      if (batch.empty()) return false;
      s.at = batch.data();
      s.end = batch.data() + batch.size();
    }
    out = *s.at++;
    return true;
  }

  /// Actions known to exist but not delivered because the source dropped
  /// damaged data (corrupt-frame recovery). Replay surfaces this as
  /// ReplayResult::degraded so callers can distinguish a clean replay from
  /// a best-effort one. Sources without a recovery mode report 0.
  virtual std::uint64_t skipped_actions() const { return 0; }

  /// Reset every rank cursor to the start of the stream so the same source
  /// object can feed another replay.  Single-pass sources (the streaming
  /// titio::Reader) cannot restart and keep the default do_rewind, which
  /// throws ConfigError.
  void rewind() {
    stash_.clear();
    do_rewind();
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

  /// Position every rank cursor at `ranks[rank].position` actions from the
  /// start (checkpoint restore; src/ckpt), so the session that just began
  /// streams the suffix.  Sources that cannot reposition keep the default
  /// do_seek, which throws ConfigError.
  void seek(std::span<const CkptRankState> ranks) {
    stash_.clear();
    do_seek(ranks);
  }

 protected:
  virtual void do_rewind() {
    throw ConfigError(
        "this ActionSource was already consumed by a previous replay and "
        "cannot be rewound; open a fresh source (or use a rewindable one: "
        "MemorySource, SharedTrace cursors)");
  }

  virtual void do_seek(std::span<const CkptRankState> /*ranks*/) {
    throw ConfigError(
        "this ActionSource cannot seek; checkpoint restore needs a "
        "repositionable source (MemorySource, SharedTrace cursors)");
  }

 private:
  /// next()'s unserved rest of each rank's last batch.
  struct Stash {
    const tit::Action* at = nullptr;
    const tit::Action* end = nullptr;
  };
  std::vector<Stash> stash_;
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

  /// The rank's whole remaining sequence, in place.
  std::span<const tit::Action> next_batch(int rank) override {
    const std::vector<tit::Action>& seq = *seqs_[static_cast<std::size_t>(rank)];
    std::size_t& i = pos_[static_cast<std::size_t>(rank)];
    const std::span<const tit::Action> rest(seq.data() + i, seq.size() - i);
    i = seq.size();
    return rest;
  }

  std::uint64_t skipped_actions() const override { return load_skipped_; }

 protected:
  void do_rewind() override { pos_.assign(pos_.size(), 0); }

  void do_seek(std::span<const CkptRankState> ranks) override {
    if (ranks.size() != seqs_.size()) {
      throw ConfigError("seek positions cover " + std::to_string(ranks.size()) +
                        " ranks, trace has " + std::to_string(seqs_.size()));
    }
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      if (ranks[r].position > seqs_[r]->size()) {
        throw ConfigError("seek position " + std::to_string(ranks[r].position) + " past rank p" +
                          std::to_string(r) + "'s " + std::to_string(seqs_[r]->size()) +
                          " actions");
      }
    }
    for (std::size_t r = 0; r < ranks.size(); ++r) pos_[r] = ranks[r].position;
  }

 private:
  /// Per-rank sequences resolved once, so a pull is two index loads.
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
