// SharedTrace: one immutable decoded trace, many independent replay cursors.
//
// A scenario sweep (core/sweep.hpp) replays the *same* trace under N
// different platform/configuration scenarios, possibly concurrently.  A
// source cannot be shared: each holds mutable per-rank positions, and a
// streaming Reader would re-read and re-decode the file once per session.
// SharedTrace fixes the cost model: the trace is loaded and decoded exactly
// once into an immutable tit::Trace held by shared_ptr, and cursor() hands
// out one MemorySource per session that shares ownership of it and carries
// nothing but per-rank indices into the shared action vectors.  N
// concurrent sessions share one decoded copy of the frames; no re-decoding,
// no per-session payload copies.
//
// Thread-safety contract: after construction a SharedTrace is immutable.
// cursor() is const and safe to call from any thread; each Cursor is then
// owned by exactly one replay session (cursors themselves are not
// thread-safe, sessions are single-threaded).  Cursors keep the decoded
// trace alive independently of the SharedTrace that minted them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "titio/reader.hpp"
#include "titio/source.hpp"

namespace tir::titio {

/// Content fingerprint of a decoded trace: every action of every rank folded
/// through binio::mix64 in rank order.  Deterministic across processes; the
/// cache key for text/in-memory traces (binary files use the cheaper
/// Reader::content_hash over their stored frame CRCs).
std::uint64_t hash_actions(const tit::Trace& trace);

class SharedTrace {
 public:
  /// Cursor-only view: per-rank indices into the shared immutable trace,
  /// which it keeps alive.  Rewindable, so one cursor can also feed several
  /// sequential replays.
  using Cursor = MemorySource;

  /// Adopt an in-memory trace (moved in; no further copies are made).
  explicit SharedTrace(tit::Trace trace)
      : trace_(std::make_shared<const tit::Trace>(std::move(trace))),
        content_hash_(hash_actions(*trace_)) {}

  /// Share an already-shared trace (no copy at all).
  explicit SharedTrace(std::shared_ptr<const tit::Trace> trace);

  /// Load a trace file once: a TITB binary (decoded through titio::Reader,
  /// honoring `options` including corrupt-frame recovery) or a text
  /// manifest (tit::load_trace; `nprocs` forwarded for single-file
  /// manifests).  The result is the one decoded copy every cursor shares.
  static SharedTrace load(const std::string& path, ReaderOptions options = {},
                          int nprocs = -1);

  int nprocs() const { return trace_->nprocs(); }
  std::uint64_t total_actions() const {
    return static_cast<std::uint64_t>(trace_->total_actions());
  }
  /// Actions dropped by corrupt-frame recovery while loading (0 for clean
  /// files and in-memory traces).
  std::uint64_t skipped_actions() const { return load_skipped_; }

  /// Content fingerprint of the loaded trace (the prediction service's cache
  /// key).  TITB loads reuse the file's stored frame CRCs
  /// (Reader::content_hash); text and in-memory traces hash the decoded
  /// actions (hash_actions).  The two domains never collide, so a binary and
  /// a text encoding of the same logical trace are distinct cache entries.
  std::uint64_t content_hash() const { return content_hash_; }

  const tit::Trace& trace() const { return *trace_; }
  const std::shared_ptr<const tit::Trace>& share() const { return trace_; }

  /// Mint an independent cursor; one per concurrent replay session.
  Cursor cursor() const { return Cursor(trace_, load_skipped_); }

 private:
  SharedTrace(std::shared_ptr<const tit::Trace> trace, std::uint64_t skipped, std::uint64_t hash)
      : trace_(std::move(trace)), load_skipped_(skipped), content_hash_(hash) {}

  std::shared_ptr<const tit::Trace> trace_;
  std::uint64_t load_skipped_ = 0;
  std::uint64_t content_hash_ = 0;
};

}  // namespace tir::titio
