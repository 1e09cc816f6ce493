// The TITB binary Time-Independent Trace format, version 2
// (docs/trace_format.md is the specification).
//
// Layout (all fixed-width integers little-endian):
//
//   File        := Header ActionFrame* [CheckpointFrame] IndexFrame Footer
//   Header      := magic u32 ("TITB")  version u16  flags u16  nprocs u32
//   Frame       := kind u8  id varint  count varint  payload_size varint
//                  payload  crc32(payload) u32
//   ActionFrame := Frame of kind 'A', id = rank, count = actions
//   CheckpointFrame := Frame of kind 'C', id = count = blocks
//   IndexFrame  := Frame of kind 'I', id = count = entries
//   Footer v1   := index_offset u64  total_actions u64  end magic u32 ("TITE")
//   Footer v2   := index_offset u64  ckpt_offset u64  total_actions u64
//                  end magic u32 ("TITE")
//
// Version 2 adds the optional checkpoint frame (ckpt_records.hpp) between
// the last action frame and the index, so appending checkpoints moves no
// action frame and leaves Reader::content_hash unchanged; ckpt_offset is 0
// when there is none.  Readers accept both versions.
//
// An action-frame payload is a run of actions of ONE rank.  Each index
// entry is (rank, start-offset delta, action_count, payload_size) varints
// for one action frame, in file order, so a reader needs the index plus one
// frame per rank in memory.  Every payload is CRC-32 protected.
//
//   action := type u8  flags u8  [partner varint]  [volume]  [volume2]
//
// Volumes are almost always integral counts (instructions, bytes), so they
// ship as varints; the flag bits switch to a raw 8-byte double for the rare
// fractional/huge value (or -0.0) and elide absent fields entirely.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/binio.hpp"
#include "tit/action.hpp"

namespace tir::titio {

inline constexpr std::uint32_t kMagic = 0x42544954u;     ///< "TITB" as LE bytes
inline constexpr std::uint32_t kEndMagic = 0x45544954u;  ///< "TITE" as LE bytes
inline constexpr std::uint16_t kVersion = 2;
inline constexpr std::uint16_t kVersionV1 = 1;  ///< still readable (no ckpt frame)

inline constexpr std::uint8_t kActionFrame = 'A';
inline constexpr std::uint8_t kIndexFrame = 'I';
inline constexpr std::uint8_t kCheckpointFrame = 'C';

inline constexpr std::size_t kHeaderBytes = 12;
inline constexpr std::size_t kFooterBytesV1 = 20;
inline constexpr std::size_t kFooterBytesV2 = 28;
/// Smallest footer either version can have (used for minimum-size checks).
inline constexpr std::size_t kFooterBytes = kFooterBytesV1;
/// Upper bound of an encoded frame preamble: kind + three worst-case varints.
inline constexpr std::size_t kMaxFramePreamble = 1 + 3 * 10;

/// Action flag bits.
inline constexpr std::uint8_t kHasPartner = 1u << 0;  ///< partner varint follows
inline constexpr std::uint8_t kHasVolume = 1u << 1;   ///< volume field follows
inline constexpr std::uint8_t kVolumeF64 = 1u << 2;   ///< volume is a raw LE double
inline constexpr std::uint8_t kVolumeNone = 1u << 3;  ///< volume = tit::kNoVolume
inline constexpr std::uint8_t kHasVolume2 = 1u << 4;  ///< volume2 field follows
inline constexpr std::uint8_t kVolume2F64 = 1u << 5;  ///< volume2 is a raw LE double

/// The preamble every frame kind shares (Frame above).
struct FrameHead {
  std::uint8_t kind = 0;
  std::uint64_t id = 0;
  std::uint64_t count = 0;
  std::uint64_t payload_bytes = 0;  ///< as declared; the reader bounds-checks it
  std::size_t preamble_bytes = 0;   ///< encoded length of the four fields
};

/// Parse a frame preamble from data[0, size): the only preamble parser.
/// Throws tir::ParseError when a field is cut short or malformed.
FrameHead parse_frame_head(const std::uint8_t* data, std::size_t size);

/// Append one whole frame to `out`: the preamble, the payload and the
/// CRC-32 of the payload.  The only preamble writer.
void put_frame(std::vector<std::uint8_t>& out, std::uint8_t kind, std::uint64_t id,
               std::uint64_t count, std::span<const std::uint8_t> payload);

/// One action frame as recorded in the index.
struct FrameRef {
  std::uint64_t offset = 0;         ///< file offset of the frame's kind byte
  std::uint64_t actions = 0;        ///< actions encoded in the payload
  std::uint64_t payload_bytes = 0;  ///< payload size (excl. preamble and CRC)
  std::uint32_t rank = 0;           ///< issuing rank of every action inside
};

/// The index-frame payload of `frames` (file order): one (rank, offset
/// delta, action count, payload size) varint entry per action frame.
std::vector<std::uint8_t> encode_index(const std::vector<FrameRef>& frames);

/// Append one action (proc implied by the enclosing frame's rank).
void encode_action(std::vector<std::uint8_t>& out, const tit::Action& a);

/// decode_action's error paths, out of line so the decoder inlines small.
[[noreturn]] void throw_bad_action(const char* what);
[[noreturn]] void throw_unknown_action_type(std::uint8_t type);

/// A raw little-endian double from data[pos...), advancing pos.
inline double decode_f64(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  if (pos + 8 > size) throw_bad_action("truncated double in action payload");
  const double v = std::bit_cast<double>(binio::get_u64(data + pos));
  pos += 8;
  return v;
}

/// Decode one action from payload[pos...), advancing pos. The issuing rank
/// comes from the frame. Throws tir::ParseError on malformed bytes.  Inline:
/// Reader::fill_batch runs it once per action in a tight loop.
inline tit::Action decode_action(const std::uint8_t* payload, std::size_t size,
                                 std::size_t& pos, std::int32_t rank) {
  if (pos + 2 > size) throw_bad_action("truncated action header in frame payload");
  const std::uint8_t type = payload[pos];
  const std::uint8_t flags = payload[pos + 1];
  pos += 2;
  if (type > static_cast<std::uint8_t>(tit::ActionType::Scatter)) {
    throw_unknown_action_type(type);
  }
  if ((flags & kVolumeNone) && (flags & kHasVolume)) {
    throw_bad_action("contradictory volume flags in binary trace");
  }
  tit::Action a;
  a.type = static_cast<tit::ActionType>(type);
  a.proc = rank;
  if (flags & kHasPartner) {
    const std::uint64_t partner = binio::get_varint(payload, size, pos);
    if (partner > 0x7FFFFFFFull) throw_bad_action("partner rank out of range in binary trace");
    a.partner = static_cast<std::int32_t>(partner);
  }
  if (flags & kVolumeNone) {
    a.volume = tit::kNoVolume;
  } else if (flags & kHasVolume) {
    a.volume = (flags & kVolumeF64)
                   ? decode_f64(payload, size, pos)
                   : static_cast<double>(binio::get_varint(payload, size, pos));
  }
  if (flags & kHasVolume2) {
    a.volume2 = (flags & kVolume2F64)
                    ? decode_f64(payload, size, pos)
                    : static_cast<double>(binio::get_varint(payload, size, pos));
  }
  return a;
}

}  // namespace tir::titio
