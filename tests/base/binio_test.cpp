// Binary-encoding primitives: CRC-32 known answers and agreement of the
// slicing-by-8 path with a bytewise reference at every length and
// alignment, chunked continuation, varint round trips and rejections, and
// the fixed-width little-endian layout.
#include "base/binio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace tir::binio {
namespace {

/// The textbook bit-at-a-time CRC-32 (reflected 0xEDB88320), the reference
/// every table-driven form must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> pseudo_random_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

TEST(BinIo, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(fox.data(), fox.size()), 0x414FA339u);
}

TEST(BinIo, Crc32EveryLengthAndAlignmentMatchesBytewise) {
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(256 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(crc32(bytes.data() + offset, len), crc32_bitwise(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(BinIo, Crc32ChunkedSeedContinues) {
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(1000);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (const std::size_t chunk : {1u, 3u, 7u, 8u, 9u, 64u, 333u}) {
    std::uint32_t c = 0;
    for (std::size_t at = 0; at < bytes.size(); at += chunk) {
      c = crc32(bytes.data() + at, std::min(chunk, bytes.size() - at), c);
    }
    EXPECT_EQ(c, whole) << "chunk " << chunk;
  }
  // A seed continues the bytewise reference too.
  const std::uint32_t head = crc32(bytes.data(), 100);
  EXPECT_EQ(crc32(bytes.data() + 100, 900, head), crc32_bitwise(bytes.data() + 100, 900, head));
}

TEST(BinIo, VarintRoundTrips) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384}, std::uint64_t{1} << 32,
        std::uint64_t{1} << 63, max - 1, max}) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf.data(), buf.size(), pos), v);
    EXPECT_EQ(pos, buf.size()) << v;
  }
  std::vector<std::uint8_t> max_bytes;
  put_varint(max_bytes, max);
  EXPECT_EQ(max_bytes.size(), 10u);
  EXPECT_EQ(max_bytes.back(), 0x01u);
}

TEST(BinIo, VarintDecodesInPlaceAmongOtherBytes) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 5);
  put_varint(buf, 300);
  put_varint(buf, 127);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(buf.data(), buf.size(), pos), 5u);
  EXPECT_EQ(get_varint(buf.data(), buf.size(), pos), 300u);
  EXPECT_EQ(get_varint(buf.data(), buf.size(), pos), 127u);
  EXPECT_EQ(pos, buf.size());
}

TEST(BinIo, MalformedVarintsThrow) {
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(nullptr, 0, pos), ParseError);

  // Truncated after the first and after the second byte (the inline
  // two-byte path must hand both to the checked decoder).
  const std::array<std::uint8_t, 1> cut_one{0x80};
  pos = 0;
  EXPECT_THROW(get_varint(cut_one.data(), cut_one.size(), pos), ParseError);
  const std::array<std::uint8_t, 2> truncated{0x80, 0x80};
  pos = 0;
  EXPECT_THROW(get_varint(truncated.data(), truncated.size(), pos), ParseError);

  // A one-byte varint right at the end is fine; one past the end is not.
  const std::array<std::uint8_t, 1> one{0x05};
  pos = 1;
  EXPECT_THROW(get_varint(one.data(), one.size(), pos), ParseError);

  std::array<std::uint8_t, 11> overlong{};
  overlong.fill(0x80);
  overlong.back() = 0x00;
  pos = 0;
  EXPECT_THROW(get_varint(overlong.data(), overlong.size(), pos), ParseError);
}

// Ten bytes carry 70 bits; the tenth may only hold bit 63.  FF x 9 then 02
// used to decode to 0x7fffffffffffffff, silently dropping bit 64.
TEST(BinIo, VarintOverflowPast64BitsThrows) {
  std::array<std::uint8_t, 10> bytes{};
  bytes.fill(0xFF);
  for (const std::uint8_t last : {0x02, 0x03, 0x40, 0x7F}) {
    bytes.back() = last;
    std::size_t pos = 0;
    EXPECT_THROW(get_varint(bytes.data(), bytes.size(), pos), ParseError)
        << "tenth byte " << int{last};
  }
  bytes.back() = 0x01;
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(bytes.data(), bytes.size(), pos),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(BinIo, FixedWidthIsLittleEndianAndTakeChecksBounds) {
  std::vector<std::uint8_t> buf;
  put_u16(buf, 0x0102);
  put_u32(buf, 0x03040506u);
  put_u64(buf, 0x0708090A0B0C0D0Eull);
  put_f64(buf, -2.5);
  const std::vector<std::uint8_t> head = {0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0E,
                                          0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07};
  ASSERT_EQ(buf.size(), head.size() + 8);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), buf.begin()));
  EXPECT_EQ(get_u16(buf.data()), 0x0102u);
  EXPECT_EQ(get_u32(buf.data() + 2), 0x03040506u);
  EXPECT_EQ(get_u64(buf.data() + 6), 0x0708090A0B0C0D0Eull);

  std::size_t pos = 14;
  EXPECT_EQ(std::bit_cast<double>(take_u64(buf.data(), buf.size(), pos)), -2.5);
  EXPECT_EQ(pos, buf.size());
  EXPECT_THROW(take_u64(buf.data(), buf.size(), pos), ParseError);
  pos = buf.size() - 7;
  EXPECT_THROW(take_u64(buf.data(), buf.size(), pos), ParseError);
  EXPECT_EQ(pos, buf.size() - 7);
}

}  // namespace
}  // namespace tir::binio
