#include "titio/format.hpp"

#include <cmath>
#include <string>

#include "base/binio.hpp"
#include "base/error.hpp"

namespace tir::titio {

namespace {

/// Integral, non-negative and exactly representable as both i64 and double:
/// the varint fast path. Everything else ships as a raw double.
bool fits_varint(double v) {
  if (!(v >= 0.0) || v >= 9.2e18) return false;
  return v == static_cast<double>(static_cast<std::int64_t>(v));
}

}  // namespace

FrameHead parse_frame_head(const std::uint8_t* data, std::size_t size) {
  if (size == 0) throw ParseError("truncated frame preamble");
  FrameHead head;
  head.kind = data[0];
  std::size_t pos = 1;
  head.id = binio::get_varint(data, size, pos);
  head.count = binio::get_varint(data, size, pos);
  head.payload_bytes = binio::get_varint(data, size, pos);
  head.preamble_bytes = pos;
  return head;
}

std::vector<std::uint8_t> encode_index(const std::vector<FrameRef>& frames) {
  std::vector<std::uint8_t> index;
  std::uint64_t prev_offset = 0;
  for (const FrameRef& f : frames) {
    binio::put_varint(index, f.rank);
    binio::put_varint(index, f.offset - prev_offset);
    binio::put_varint(index, f.actions);
    binio::put_varint(index, f.payload_bytes);
    prev_offset = f.offset;
  }
  return index;
}

void put_frame(std::vector<std::uint8_t>& out, std::uint8_t kind, std::uint64_t id,
               std::uint64_t count, std::span<const std::uint8_t> payload) {
  out.reserve(out.size() + kMaxFramePreamble + payload.size() + 4);
  out.push_back(kind);
  binio::put_varint(out, id);
  binio::put_varint(out, count);
  binio::put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  binio::put_u32(out, binio::crc32(payload.data(), payload.size()));
}

void encode_action(std::vector<std::uint8_t>& out, const tit::Action& a) {
  std::uint8_t flags = 0;
  if (a.partner >= 0) flags |= kHasPartner;
  if (a.volume == tit::kNoVolume) {
    flags |= kVolumeNone;
  } else if (a.volume != 0.0) {
    flags |= kHasVolume;
    if (!fits_varint(a.volume)) flags |= kVolumeF64;
  }
  if (a.volume2 != 0.0) {
    flags |= kHasVolume2;
    if (!fits_varint(a.volume2)) flags |= kVolume2F64;
  }
  out.push_back(static_cast<std::uint8_t>(a.type));
  out.push_back(flags);
  if (flags & kHasPartner) binio::put_varint(out, static_cast<std::uint64_t>(a.partner));
  if (flags & kHasVolume) {
    if (flags & kVolumeF64) {
      binio::put_f64(out, a.volume);
    } else {
      binio::put_varint(out, static_cast<std::uint64_t>(a.volume));
    }
  }
  if (flags & kHasVolume2) {
    if (flags & kVolume2F64) {
      binio::put_f64(out, a.volume2);
    } else {
      binio::put_varint(out, static_cast<std::uint64_t>(a.volume2));
    }
  }
}

void throw_bad_action(const char* what) { throw ParseError(what); }

void throw_unknown_action_type(std::uint8_t type) {
  throw ParseError("unknown action type " + std::to_string(type) + " in binary trace");
}

}  // namespace tir::titio
