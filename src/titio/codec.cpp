#include "titio/format.hpp"

#include <bit>
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

void put_f64(std::vector<std::uint8_t>& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

}  // namespace

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
      put_f64(out, a.volume);
    } else {
      binio::put_varint(out, static_cast<std::uint64_t>(a.volume));
    }
  }
  if (flags & kHasVolume2) {
    if (flags & kVolume2F64) {
      put_f64(out, a.volume2);
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
