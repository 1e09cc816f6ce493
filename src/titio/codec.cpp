#include "titio/format.hpp"

#include <bit>
#include <cmath>
#include <string>

#include "base/binio.hpp"
#include "base/error.hpp"

namespace tir::titio {

namespace {

/// Integral, non-negative and exactly representable as both i64 and double:
/// the varint fast path. Everything else, -0.0 included, ships as a raw
/// double.
bool fits_varint(double v) {
  if (!(v >= 0.0) || v >= 9.2e18 || std::signbit(v)) return false;
  return v == static_cast<double>(static_cast<std::int64_t>(v));
}

/// Only +0.0 may be elided: decoding an absent volume yields +0.0, so a
/// -0.0 is stored to come back with its sign.
bool is_positive_zero(double v) { return v == 0.0 && !std::signbit(v); }

/// binio::put_varint's LEB128 bytes, written at `p`; returns the end.
std::uint8_t* write_varint(std::uint8_t* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v) | 0x80u;
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// One volume field at `p`: a raw little-endian double (binio::put_f64's
/// bytes) or a varint; returns the end.
std::uint8_t* write_volume(std::uint8_t* p, double v, bool raw) {
  if (!raw) return write_varint(p, static_cast<std::uint64_t>(v));
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(bits >> (8 * i));
  return p;
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
  } else if (!is_positive_zero(a.volume)) {
    flags |= kHasVolume;
    if (!fits_varint(a.volume)) flags |= kVolumeF64;
  }
  if (!is_positive_zero(a.volume2)) {
    flags |= kHasVolume2;
    if (!fits_varint(a.volume2)) flags |= kVolume2F64;
  }
  // Assembled in place and appended once: one capacity check per action,
  // not per byte.  At most type, flags, a 5-byte partner (< 2^31) and two
  // 9-byte volume varints (< 2^63).
  std::uint8_t buffer[25];
  std::uint8_t* p = buffer;
  *p++ = static_cast<std::uint8_t>(a.type);
  *p++ = flags;
  if (flags & kHasPartner) p = write_varint(p, static_cast<std::uint64_t>(a.partner));
  if (flags & kHasVolume) p = write_volume(p, a.volume, flags & kVolumeF64);
  if (flags & kHasVolume2) p = write_volume(p, a.volume2, flags & kVolume2F64);
  out.insert(out.end(), buffer, p);
}

void throw_bad_action(const char* what) { throw ParseError(what); }

void throw_unknown_action_type(std::uint8_t type) {
  throw ParseError("unknown action type " + std::to_string(type) + " in binary trace");
}

}  // namespace tir::titio
