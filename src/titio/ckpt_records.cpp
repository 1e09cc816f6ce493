#include "titio/ckpt_records.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>

#include "base/binio.hpp"
#include "base/error.hpp"
#include "base/log.hpp"
#include "titio/format.hpp"
#include "titio/reader.hpp"

namespace tir::titio {

namespace {

constexpr std::uint64_t kCkptPayloadVersion = 1;

void validate_block(const CheckpointBlock& block) {
  if (block.nprocs <= 0) {
    throw Error("checkpoint block needs nprocs > 0, got " + std::to_string(block.nprocs));
  }
  for (const TraceCheckpoint& c : block.checkpoints) {
    if (c.ranks.size() != static_cast<std::size_t>(block.nprocs)) {
      throw Error("checkpoint has " + std::to_string(c.ranks.size()) +
                  " rank states, block says nprocs=" + std::to_string(block.nprocs));
    }
  }
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint_payload(const std::vector<CheckpointBlock>& blocks) {
  std::vector<std::uint8_t> out;
  binio::put_varint(out, kCkptPayloadVersion);
  for (const CheckpointBlock& block : blocks) {
    validate_block(block);
    binio::put_u64(out, block.fingerprint);
    binio::put_varint(out, static_cast<std::uint64_t>(block.nprocs));
    binio::put_varint(out, block.checkpoints.size());
    for (const TraceCheckpoint& c : block.checkpoints) {
      binio::put_f64(out, c.time);
      for (const CkptRankState& r : c.ranks) {
        binio::put_varint(out, r.position);
        binio::put_f64(out, r.time);
        binio::put_varint(out, r.collective_sites);
        binio::put_u64(out, r.prefix_hash);
      }
    }
  }
  return out;
}

std::vector<CheckpointBlock> decode_checkpoint_payload(const std::vector<std::uint8_t>& payload) {
  std::vector<CheckpointBlock> blocks;
  std::size_t pos = 0;
  const std::uint64_t version = binio::get_varint(payload.data(), payload.size(), pos);
  if (version != kCkptPayloadVersion) {
    throw ParseError("unsupported checkpoint payload version " + std::to_string(version));
  }
  // Blocks are self-delimiting: decode until the payload is exhausted.
  while (pos < payload.size()) {
    CheckpointBlock block;
    block.fingerprint = binio::take_u64(payload.data(), payload.size(), pos);
    const std::uint64_t nprocs = binio::get_varint(payload.data(), payload.size(), pos);
    if (nprocs == 0 || nprocs > static_cast<std::uint64_t>(tit::kMaxRanks)) {
      throw ParseError("bad checkpoint block nprocs " + std::to_string(nprocs));
    }
    block.nprocs = static_cast<int>(nprocs);
    // A checkpoint takes at least 8 + 18 bytes per rank (a time, and per
    // rank two one-byte varints and two 8-byte fields): refuse counts the
    // remaining bytes cannot hold before sizing anything from them.
    const std::uint64_t count = binio::get_varint(payload.data(), payload.size(), pos);
    if (count > (payload.size() - pos) / (8 + 18 * nprocs)) {
      throw ParseError("checkpoint block claims " + std::to_string(count) +
                       " checkpoints of " + std::to_string(nprocs) + " ranks in " +
                       std::to_string(payload.size() - pos) + " bytes");
    }
    block.checkpoints.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      TraceCheckpoint c;
      c.time = std::bit_cast<double>(binio::take_u64(payload.data(), payload.size(), pos));
      c.ranks.resize(static_cast<std::size_t>(nprocs));
      for (CkptRankState& r : c.ranks) {
        r.position = binio::get_varint(payload.data(), payload.size(), pos);
        r.time = std::bit_cast<double>(binio::take_u64(payload.data(), payload.size(), pos));
        r.collective_sites = binio::get_varint(payload.data(), payload.size(), pos);
        r.prefix_hash = binio::take_u64(payload.data(), payload.size(), pos);
      }
      block.checkpoints.push_back(std::move(c));
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

std::vector<CheckpointBlock> read_checkpoints(Reader& reader) {
  // Never fatal: checkpoints only accelerate seeks, so a damaged frame or
  // payload degrades to "no checkpoints" with a warning.
  try {
    const std::vector<std::uint8_t> payload = reader.read_checkpoint_payload();
    if (payload.empty()) return {};
    return decode_checkpoint_payload(payload);
  } catch (const ParseError& e) {
    TIR_LOG(Warn, std::string("ignoring damaged checkpoint frame (") + e.what() +
                      "); seeks fall back to cold replay");
    return {};
  }
}

std::vector<CheckpointBlock> read_checkpoints(const std::string& path) {
  Reader reader(path);
  return read_checkpoints(reader);
}

void append_checkpoints(const std::string& path, const std::vector<CheckpointBlock>& blocks) {
  if (blocks.empty()) return;
  for (const CheckpointBlock& block : blocks) validate_block(block);

  // The new tail: checkpoint frame, index, v2 footer.  The index references
  // action-frame offsets only, and those never move: it is the one the file
  // had.  A damaged existing checkpoint frame reads as empty, so the
  // rewrite also heals corrupt checkpoint tails.
  std::vector<std::uint8_t> tail;
  std::uint64_t rewrite_pos = 0;
  bool upgrade = false;
  {
    Reader reader(path);  // validates header, footer and index
    std::vector<CheckpointBlock> merged = read_checkpoints(reader);
    for (const CheckpointBlock& block : blocks) {
      const auto same = std::find_if(merged.begin(), merged.end(), [&](const CheckpointBlock& b) {
        return b.fingerprint == block.fingerprint;
      });
      if (same != merged.end()) {
        *same = block;
      } else {
        merged.push_back(block);
      }
    }
    rewrite_pos = reader.ckpt_offset() != 0 ? reader.ckpt_offset() : reader.index_offset();
    put_frame(tail, kCheckpointFrame, merged.size(), merged.size(),
              encode_checkpoint_payload(merged));
    const std::uint64_t new_index_offset = rewrite_pos + tail.size();
    const std::vector<FrameRef>& frames = reader.frames();
    put_frame(tail, kIndexFrame, frames.size(), frames.size(), encode_index(frames));
    binio::put_u64(tail, new_index_offset);
    binio::put_u64(tail, rewrite_pos);  // ckpt_offset of the v2 footer
    binio::put_u64(tail, reader.total_actions());
    binio::put_u32(tail, kEndMagic);
    upgrade = reader.version() == kVersionV1;
  }

  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!io) throw Error("cannot open binary trace for checkpoint append: " + path);
  io.seekp(static_cast<std::streamoff>(rewrite_pos));
  io.write(reinterpret_cast<const char*>(tail.data()), static_cast<std::streamsize>(tail.size()));
  if (upgrade) {
    // Upgrade in place: only the version field changes, after the v2 tail
    // is fully written.
    std::vector<std::uint8_t> v2;
    binio::put_u16(v2, kVersion);
    io.seekp(4);
    io.write(reinterpret_cast<const char*>(v2.data()), static_cast<std::streamsize>(v2.size()));
  }
  io.flush();
  if (!io) throw Error("checkpoint append failed on binary trace: " + path);
  io.close();

  const std::uint64_t new_size = rewrite_pos + tail.size();
  if (new_size < std::filesystem::file_size(path)) std::filesystem::resize_file(path, new_size);
}

}  // namespace tir::titio
