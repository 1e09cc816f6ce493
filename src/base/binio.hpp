// Binary-encoding primitives shared by the binary trace I/O layer:
// LEB128 varints (with zigzag for signed values) and CRC-32 (IEEE 802.3,
// the reflected 0xEDB88320 polynomial, as used by zlib/PNG/gzip).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tir::binio {

/// Append `v` to `out` as an LEB128 varint (7 bits per byte, LSB first,
/// high bit set on all but the last byte). At most 10 bytes for a u64.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);

/// Zigzag-fold a signed value so small-magnitude negatives stay short
/// (-1 -> 1, 1 -> 2, -2 -> 3, ...), then varint-encode it.
void put_varint_signed(std::vector<std::uint8_t>& out, std::int64_t v);

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

/// Decode a zigzag-folded signed varint.
std::int64_t get_varint_signed(const std::uint8_t* data, std::size_t size, std::size_t& pos);

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
