// Bounded-memory streaming reader of TITB binary traces (format.hpp).
//
// On open, the reader loads only the header and the index (a few bytes per
// frame); action payloads stay on disk.  Each rank has an independent
// cursor that loads its current frame when it reaches it and decodes it in
// place.  Peak memory is the index plus one frame payload per rank (and
// one decoded batch per rank, ReaderOptions::decode_batch).
#pragma once

#include <cstdint>
#include <exception>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "titio/format.hpp"
#include "titio/source.hpp"

namespace tir::titio {

struct ReaderOptions {
  /// Actions decoded per batch from the current frame; next_batch() hands
  /// the batch out in place, so the varint decode loop, its error handling
  /// and the virtual pull run once per `decode_batch` actions instead of
  /// once per action.  Observable behavior (delivered action sequence,
  /// thrown errors and the action index they fire at, recovery accounting)
  /// is identical for any value; 1 reproduces unbatched decoding.  The batch
  /// buffer (decode_batch Actions per rank) is not counted in
  /// buffered_bytes().  Values < 1 are treated as 1.
  std::size_t decode_batch = 64;
  /// Best-effort mode: on a corrupt action frame (CRC mismatch, truncation,
  /// index disagreement), resync to the rank's next frame via the
  /// end-of-file index instead of throwing, and count what was dropped
  /// (skipped_frames()/skipped_actions()).  The header, footer and index
  /// must still be intact — they are the resync anchor; damage there throws
  /// CorruptFrameError even in this mode.  Default is strict: any damage
  /// throws CorruptFrameError with the byte offset of the bad frame.
  bool recover = false;
};

class Reader final : public ActionSource {
 public:
  /// Opens and validates header, footer and index. Throws
  /// tir::CorruptFrameError on truncation or damage (with the byte offset),
  /// tir::ParseError on a non-TITB file or unsupported version.
  explicit Reader(const std::string& path, ReaderOptions options = {});

  int nprocs() const override { return nprocs_; }
  /// The rest of the rank's current decoded batch, in place (see
  /// ActionSource::next_batch for the span's lifetime and error timing).
  std::span<const tit::Action> next_batch(int rank) override;

  /// Drain every rank's remaining actions into one in-memory Trace, batch
  /// by batch, each rank's vector reserved from actions_of().  Errors and
  /// recovery accounting are those of draining through next().
  tit::Trace materialize();

  std::uint64_t total_actions() const { return total_actions_; }
  /// TITB format version of the file (1 or 2; format.hpp).
  std::uint16_t version() const { return version_; }
  /// File offset of the checkpoint frame; 0 when the file has none (always
  /// 0 for v1 files).
  std::uint64_t ckpt_offset() const { return ckpt_offset_; }
  /// File offset of the index frame (tail rewrites start at
  /// min(ckpt_offset, index_offset); ckpt_records.hpp).
  std::uint64_t index_offset() const { return index_offset_; }
  /// CRC-validated payload of the checkpoint frame, or empty when the file
  /// carries none.  Throws CorruptFrameError on a damaged one, which
  /// read_checkpoints (ckpt_records.hpp) turns into "no checkpoints".
  std::vector<std::uint8_t> read_checkpoint_payload();
  std::uint64_t actions_of(int rank) const;
  std::size_t frame_count() const { return frames_.size(); }
  /// The index, in file order (tooling: offsets, per-frame action counts).
  const std::vector<FrameRef>& frames() const { return frames_; }

  // --- corrupt-frame recovery accounting (ReaderOptions::recover) ---------
  /// Frames dropped (or abandoned mid-decode) so far.
  std::uint64_t skipped_frames() const { return skipped_frames_; }
  /// Actions lost to dropped frames, total and per rank.
  std::uint64_t skipped_actions() const override { return skipped_actions_; }
  std::uint64_t skipped_actions_of(int rank) const;

  /// Currently buffered payload bytes across all cursors: at most one
  /// frame's payload per rank.
  std::size_t buffered_bytes() const { return buffered_; }
  /// High-water mark of buffered_bytes() since open.
  std::size_t peak_buffered_bytes() const { return peak_buffered_; }

  /// Full integrity pass: re-reads every frame in file order, verifies each
  /// CRC and decodes every action. Independent of the streaming cursors.
  /// Throws on the first corrupt frame.
  void verify();

  /// Content fingerprint of the trace as stored: the header fields plus every
  /// frame's (rank, action count, stored CRC-32) folded through binio::mix64
  /// in file order.  Reuses the CRCs the writer already paid for, so the hash
  /// reads ~4 bytes per frame instead of re-hashing the payloads.  Stable
  /// across processes — it is the service cache key for TITB traces
  /// (docs/service.md).  Independent of the streaming cursors.
  std::uint64_t content_hash();

 private:
  struct Cursor {
    std::vector<std::uint8_t> payload;     ///< current frame, being decoded
    std::size_t pos = 0;                   ///< decode position in payload
    std::uint64_t remaining = 0;           ///< actions of current frame not yet delivered
    std::size_t next_frame = 0;            ///< index into frames-of-this-rank

    // Batched decode (ReaderOptions::decode_batch): actions decoded ahead
    // of delivery from the current frame.  `defer` holds a decode error hit
    // while filling the batch, re-raised only once the cleanly decoded
    // prefix has been served — exactly when unbatched decoding would have
    // hit it.  `trailing` likewise defers the trailing-bytes check to the
    // delivery of the frame's last action.
    std::vector<tit::Action> batch;
    std::size_t batch_pos = 0;
    std::exception_ptr defer;
    bool trailing = false;
  };

  /// Reads `size` bytes at `offset`; false when the file ends first.
  bool read_at(std::uint64_t offset, std::uint8_t* data, std::size_t size);
  /// The preamble of the `kind` frame at `offset`, read from before `end`.
  /// Throws CorruptFrameError (at `offset`, for `rank`) when it is cut
  /// short, unparseable or of another kind.
  FrameHead read_head(std::uint64_t offset, std::uint64_t end, std::uint8_t kind,
                      int rank = -1);
  /// The CRC-checked payload of the frame at `offset` with preamble `head`,
  /// payload and CRC in one read.  Throws CorruptFrameError when they do
  /// not fit before `end` (the bounds rule), are cut short or fail the CRC.
  void read_body(std::uint64_t offset, const FrameHead& head, std::uint64_t end,
                 std::vector<std::uint8_t>& payload, int rank = -1);
  /// An action frame's payload, its preamble checked against its index entry.
  void read_payload(const FrameRef& frame, std::vector<std::uint8_t>& payload);
  bool advance_frame(int rank, Cursor& cursor);
  void fill_batch(int rank, Cursor& cursor);
  void account(std::ptrdiff_t delta);
  void count_skip(int rank, std::uint64_t actions);

  std::ifstream in_;
  std::string path_;
  ReaderOptions options_;
  int nprocs_ = 0;
  std::uint16_t version_ = 0;
  std::uint64_t ckpt_offset_ = 0;
  std::uint64_t index_offset_ = 0;
  std::uint64_t total_actions_ = 0;
  std::uint64_t file_size_ = 0;
  std::vector<FrameRef> frames_;                  ///< file order
  std::vector<std::vector<std::size_t>> of_rank_;  ///< frame indices per rank
  std::vector<Cursor> cursors_;
  std::size_t buffered_ = 0;
  std::size_t peak_buffered_ = 0;
  std::uint64_t skipped_frames_ = 0;
  std::uint64_t skipped_actions_ = 0;
  std::vector<std::uint64_t> skipped_of_;  ///< per-rank skipped actions
};

/// True if `path` starts with the TITB magic (cheap format sniff).
bool is_binary_trace(const std::string& path);

/// Materialize a whole binary trace (convenience for small files / tests).
tit::Trace read_binary_trace(const std::string& path);

}  // namespace tir::titio
