// Checkpoint records stored inside TITB v2 files (format.hpp).
//
// A checkpoint is a consistent cut of a replay: per rank, the number of
// actions completed, the simulated time at that boundary, the count of
// collective sites passed, and a running hash of the action prefix.  A
// block groups the checkpoints of ONE scenario (identified by its
// fingerprint: backend + platform + config; src/ckpt/checkpoint.hpp) —
// the same trace file can carry checkpoints of several scenarios.
//
// Checkpoint-frame payload ('C' frame, block count in the preamble):
//
//   payload    := ckpt_version varint(=1)  block*
//   block      := fingerprint u64  nprocs varint  checkpoint_count varint
//                 checkpoint*
//   checkpoint := time f64  rank_state{nprocs}
//   rank_state := position varint  time f64  collective_sites varint
//                 prefix_hash u64
//
// (f64 = raw little-endian IEEE-754 bytes; u64 = little-endian.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tir::titio {

class Reader;

/// Per-rank state of one consistent cut.
struct CkptRankState {
  std::uint64_t position = 0;         ///< actions of this rank completed
  double time = 0.0;                  ///< simulated time at that boundary
  std::uint64_t collective_sites = 0; ///< collective call sites passed
  std::uint64_t prefix_hash = 0;      ///< fold of the rank's replayed prefix

  bool operator==(const CkptRankState&) const = default;
};

/// One consistent cut: per-rank states plus the cut time (max rank time).
struct TraceCheckpoint {
  double time = 0.0;
  std::vector<CkptRankState> ranks;

  bool operator==(const TraceCheckpoint&) const = default;
};

/// Checkpoints of one scenario, keyed by its fingerprint.
struct CheckpointBlock {
  std::uint64_t fingerprint = 0;
  int nprocs = 0;
  std::vector<TraceCheckpoint> checkpoints;  ///< ascending by time

  bool operator==(const CheckpointBlock&) const = default;
};

/// Encode blocks into a checkpoint-frame payload (without the frame shell).
std::vector<std::uint8_t> encode_checkpoint_payload(
    const std::vector<CheckpointBlock>& blocks);

/// Decode a checkpoint-frame payload. Blocks are self-delimiting, so the
/// payload alone suffices. Throws tir::ParseError on malformed bytes.
std::vector<CheckpointBlock> decode_checkpoint_payload(
    const std::vector<std::uint8_t>& payload);

/// Checkpoint blocks of an open trace, or empty when it has none.  Damage
/// never throws: checkpoints are an accelerator, so a corrupt frame logs a
/// warning and degrades to "no checkpoints" (cold replay still works).
std::vector<CheckpointBlock> read_checkpoints(Reader& reader);

/// Convenience: open `path` and read its checkpoint blocks.
std::vector<CheckpointBlock> read_checkpoints(const std::string& path);

/// Merge `blocks` into the trace at `path` (replacing any existing block
/// with the same fingerprint) by rewriting the file tail in place: the new
/// checkpoint frame, the file's index re-encoded (encode_index: the same
/// bytes for any index a Writer wrote), and a v2 footer.  A v1 file
/// is upgraded to v2 (header version patched).  Action frames and
/// Reader::content_hash are unchanged.  Throws tir::Error on I/O failure,
/// tir::ParseError if the file is not a loadable TITB trace, tir::Error on
/// a block whose rank states disagree with its nprocs.
void append_checkpoints(const std::string& path, const std::vector<CheckpointBlock>& blocks);

}  // namespace tir::titio
