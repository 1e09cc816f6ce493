// Binary-encoding primitives shared by the binary trace I/O layer:
// fixed-width little-endian integers and doubles, LEB128 varints, and
// CRC-32 (IEEE 802.3, the reflected 0xEDB88320 polynomial, as used by
// zlib/PNG/gzip).  The only place in src/ that spells out a byte order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tir::binio {

/// Fixed-width little-endian reads; the caller has checked the bytes exist.
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// A byte loop, not two get_u32: inlined into the action decoder's double
/// path, that form decoded an LU trace ~20% slower (GCC 12.2, -O3, x86-64).
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// A little-endian u64 from data[pos...), advancing pos.  Throws
/// tir::ParseError when fewer than 8 bytes remain.
std::uint64_t take_u64(const std::uint8_t* data, std::size_t size, std::size_t& pos);

/// Fixed-width little-endian appends; a double as its IEEE-754 bits.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Append `v` to `out` as an LEB128 varint (7 bits per byte, LSB first,
/// high bit set on all but the last byte). At most 10 bytes for a u64.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);

/// get_varint's out-of-line path: varints of three or more bytes, and every
/// error.  Decodes and checks any varint on its own.
std::uint64_t get_varint_long(const std::uint8_t* data, std::size_t size, std::size_t& pos);

/// Decode one varint from data[pos...). Advances pos past the varint.
/// Throws tir::ParseError on truncation, on a >10-byte (overlong) encoding
/// and on a 10-byte encoding whose value does not fit 64 bits.  One- and
/// two-byte varints (< 16384: ranks, counts, the message sizes of most
/// point-to-point actions) decode inline; every longer one, and every
/// error, goes through get_varint_long.
inline std::uint64_t get_varint(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  if (pos < size) [[likely]] {
    const std::uint8_t b0 = data[pos];
    if (b0 < 0x80u) {
      ++pos;
      return b0;
    }
    if (size - pos >= 2 && data[pos + 1] < 0x80u) {
      const std::uint64_t v = (b0 & 0x7Fu) | static_cast<std::uint64_t>(data[pos + 1]) << 7;
      pos += 2;
      return v;
    }
  }
  return get_varint_long(data, size, pos);
}

/// CRC-32 of `size` bytes, optionally continuing from a previous value
/// (pass the previous return value as `seed` to checksum in chunks).
/// Slicing-by-8: eight bytes per step through eight derived tables; the
/// values are those of the bytewise table-driven CRC.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// 64-bit content-fingerprint mixing (hash_combine-style): fold `v` into the
/// running hash `h`.  Stable across platforms and releases — fingerprints
/// built from it (titio::SharedTrace::content_hash, the service cache keys)
/// may be persisted and compared between processes.
inline constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;

inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0x100000001b3ull;
  return h ^ (h >> 29);
}

}  // namespace tir::binio
