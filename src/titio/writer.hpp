// Streaming writer of the TITB binary trace format (format.hpp).
//
// Actions are appended in any rank interleaving; the writer batches each
// rank's actions into frames and flushes a frame whenever a rank's pending
// batch reaches `frame_actions`.  Memory is therefore bounded by
// nprocs x one encoded frame, independent of trace length — acquisition
// can emit a billion-action trace straight to disk.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "tit/trace.hpp"
#include "titio/format.hpp"

namespace tir::titio {

struct WriterOptions {
  /// Actions per frame: the frame is the unit of reader buffering, so this
  /// bounds both writer and reader memory. 4096 actions ≈ 20-60 KiB payload.
  std::uint32_t frame_actions = 4096;
  /// Format version to emit (format.hpp): kVersion (2) by default; kVersionV1
  /// produces the legacy 20-byte footer without a checkpoint-offset slot —
  /// kept writable so backward-compatibility tests exercise genuine v1 files.
  std::uint16_t version = kVersion;
};

class Writer {
 public:
  /// Creates/truncates `path` and writes the header immediately.  Throws
  /// ConfigError, before touching `path`, unless 1 <= nprocs <= kMaxRanks.
  Writer(const std::string& path, int nprocs, WriterOptions options = {});

  /// Best-effort finish(); errors are swallowed (call finish() yourself to
  /// observe them — an unfinished file has no index and will not load).
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Append one action, routed by a.proc. Throws on out-of-range rank.
  void add(const tit::Action& a);

  /// Flush pending frames, write the index frame and footer. Idempotent;
  /// no add() is allowed afterwards.
  void finish();

  std::uint64_t actions_written() const { return total_actions_; }

 private:
  void flush_rank(std::size_t rank);
  /// Writes `bytes` at offset_ and advances it.
  void emit(const std::vector<std::uint8_t>& bytes);

  std::ofstream out_;
  std::string path_;
  WriterOptions options_;
  int nprocs_;
  bool finished_ = false;
  std::uint64_t offset_ = 0;        ///< bytes written so far
  std::uint64_t total_actions_ = 0;
  std::vector<std::vector<std::uint8_t>> pending_;  ///< encoded actions per rank
  std::vector<std::uint64_t> pending_count_;
  std::vector<FrameRef> frames_;    ///< flushed action frames, file order
};

/// Convenience: dump a materialized trace to one binary file.
void write_binary_trace(const tit::Trace& trace, const std::string& path,
                        WriterOptions options = {});

}  // namespace tir::titio
