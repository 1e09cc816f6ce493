#include "base/binio.hpp"

#include <array>

#include "base/error.hpp"

namespace tir::binio {

namespace {

/// kCrcTables[0] is the bytewise table of the reflected polynomial;
/// kCrcTables[k][n] is the CRC state after feeding byte n followed by k
/// zero bytes, which lets crc32() fold eight input bytes per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

std::uint64_t take_u64(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  if (pos > size || size - pos < 8) throw ParseError("truncated 8-byte field");
  const std::uint64_t v = get_u64(data + pos);
  pos += 8;
  return v;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) { put_le(out, v); }
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) { put_le(out, v); }

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint_long(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= size) throw ParseError("truncated varint");
    const std::uint8_t byte = data[pos++];
    // The tenth byte carries bit 63 only; anything more would be dropped.
    if (shift == 63 && (byte & 0x7Fu) > 1) throw ParseError("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) return v;
  }
  throw ParseError("overlong varint");
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = get_u32(p) ^ c;
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace tir::binio
