// The TITB binary trace format: lossless round trips (in-memory, text ->
// binary -> text), special values, corruption and truncation rejection,
// and the reader's bounded-buffer accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "base/binio.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "support/temp_dir.hpp"
#include "support/wrapped_titb.hpp"
#include "tit/trace.hpp"
#include "titio/format.hpp"
#include "titio/reader.hpp"
#include "titio/shared.hpp"
#include "titio/writer.hpp"

namespace tir::titio {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return test::unique_temp_path("titio_" + name, ".titb");
}

tit::Action random_action(rng::Sequence& rand, int nprocs) {
  using tit::ActionType;
  static const ActionType kTypes[] = {
      ActionType::Init,      ActionType::Finalize, ActionType::Compute,
      ActionType::Send,      ActionType::Isend,    ActionType::Recv,
      ActionType::Irecv,     ActionType::Wait,     ActionType::WaitAll,
      ActionType::Barrier,   ActionType::Bcast,    ActionType::Reduce,
      ActionType::AllReduce, ActionType::AllToAll, ActionType::AllGather,
      ActionType::Gather,    ActionType::Scatter};
  tit::Action a;
  a.type = kTypes[rand.next_u64() % std::size(kTypes)];
  a.proc = static_cast<std::int32_t>(rand.next_u64() % nprocs);
  const auto other = static_cast<std::int32_t>(rand.next_u64() % nprocs);
  switch (a.type) {
    case ActionType::Send:
    case ActionType::Isend:
    case ActionType::Recv:
    case ActionType::Irecv:
      a.partner = other;
      a.volume = static_cast<double>(rand.next_u64() % 1000000);
      break;
    case ActionType::Compute:
      a.volume = static_cast<double>(rand.next_u64() % (1ULL << 40));
      break;
    case ActionType::Bcast:
    case ActionType::Gather:
    case ActionType::Scatter:
      a.partner = other;
      a.volume = static_cast<double>(rand.next_u64() % 100000);
      break;
    case ActionType::Reduce:
      a.partner = other;
      [[fallthrough]];
    case ActionType::AllReduce:
    case ActionType::AllToAll:
    case ActionType::AllGather:
      a.volume = static_cast<double>(rand.next_u64() % 100000);
      a.volume2 = static_cast<double>(rand.next_u64() % 100000);
      break;
    default:
      break;
  }
  return a;
}

class BinaryRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryRoundTrip, RandomTracesAreLossless) {
  rng::Sequence rand(GetParam());
  const int nprocs = 2 + static_cast<int>(rand.next_u64() % 6);
  tit::Trace trace(nprocs);
  for (int i = 0; i < 500; ++i) trace.push(random_action(rand, nprocs));

  const fs::path path = temp_file("rt_" + std::to_string(GetParam()));
  // Small frames force multiple frames per rank.
  write_binary_trace(trace, path.string(), WriterOptions{64});
  const tit::Trace back = read_binary_trace(path.string());
  ASSERT_EQ(back.nprocs(), nprocs);
  for (int p = 0; p < nprocs; ++p) EXPECT_EQ(back.actions(p), trace.actions(p));
  fs::remove(path);
}

TEST_P(BinaryRoundTrip, TextToBinaryToTextIsIdentity) {
  rng::Sequence rand(GetParam() + 1000);
  const int nprocs = 4;
  tit::Trace trace(nprocs);
  for (int i = 0; i < 300; ++i) trace.push(random_action(rand, nprocs));

  // Text rendering of the original...
  std::string text;
  for (int p = 0; p < nprocs; ++p) {
    for (const tit::Action& a : trace.actions(p)) text += tit::to_line(a) + "\n";
  }
  // ...through the binary format...
  const fs::path path = temp_file("txt_" + std::to_string(GetParam()));
  {
    Writer writer(path.string(), nprocs, WriterOptions{32});
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) writer.add(tit::parse_line(line));
    writer.finish();
  }
  // ...and back to text is the identity.
  Reader reader(path.string());
  std::string back;
  tit::Action a;
  for (int r = 0; r < nprocs; ++r) {
    while (reader.next(r, a)) back += tit::to_line(a) + "\n";
  }
  EXPECT_EQ(back, text);
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRoundTrip, ::testing::Range<std::uint64_t>(1, 9));

TEST(BinaryFormat, SpecialValuesSurvive) {
  using tit::ActionType;
  tit::Trace trace(2);
  trace.push({ActionType::Recv, 0, 1, tit::kNoVolume, 0});     // old-format recv
  trace.push({ActionType::Compute, 0, -1, 1.5, 0});            // fractional -> f64 path
  trace.push({ActionType::Compute, 0, -1, 1e30, 0});           // huge -> f64 path
  trace.push({ActionType::Compute, 0, -1, 9007199254740992.0, 0});  // 2^53
  trace.push({ActionType::AllReduce, 1, -1, 0, 977536});       // zero volume, volume2 set
  trace.push({ActionType::Reduce, 1, 0, 4096, 0.25});          // fractional volume2

  const fs::path path = temp_file("special");
  write_binary_trace(trace, path.string());
  const tit::Trace back = read_binary_trace(path.string());
  EXPECT_EQ(back.actions(0), trace.actions(0));
  EXPECT_EQ(back.actions(1), trace.actions(1));
  fs::remove(path);
}

TEST(BinaryFormat, EmptyTraceRoundTrips) {
  const fs::path path = temp_file("empty");
  write_binary_trace(tit::Trace(3), path.string());
  Reader reader(path.string());
  EXPECT_EQ(reader.nprocs(), 3);
  EXPECT_EQ(reader.total_actions(), 0u);
  tit::Action a;
  for (int r = 0; r < 3; ++r) EXPECT_FALSE(reader.next(r, a));
  EXPECT_NO_THROW(Reader(path.string()).verify());
  fs::remove(path);
}

TEST(BinaryFormat, InterleavedWritesRoundTrip) {
  const int nprocs = 3;
  tit::Trace trace(nprocs);
  for (int i = 0; i < 100; ++i) {
    for (int r = 0; r < nprocs; ++r) {
      trace.push({tit::ActionType::Compute, r, -1, static_cast<double>(i * nprocs + r), 0});
    }
  }
  const fs::path path = temp_file("interleaved");
  {
    Writer writer(path.string(), nprocs, WriterOptions{16});
    for (int i = 0; i < 100; ++i) {  // round-robin across ranks, as acquisition would
      for (int r = 0; r < nprocs; ++r) writer.add(trace.actions(r)[static_cast<size_t>(i)]);
    }
    writer.finish();
  }
  const tit::Trace back = read_binary_trace(path.string());
  for (int p = 0; p < nprocs; ++p) EXPECT_EQ(back.actions(p), trace.actions(p));
  fs::remove(path);
}

TEST(BinaryFormat, WriterRejectsOutOfRangeRank) {
  const fs::path path = temp_file("badrank");
  Writer writer(path.string(), 2);
  EXPECT_THROW(writer.add({tit::ActionType::Compute, 5, -1, 1, 0}), Error);
  EXPECT_THROW(writer.add({tit::ActionType::Compute, -1, -1, 1, 0}), Error);
  writer.finish();
  fs::remove(path);
}

// The top rank the packed Action holds, the widest partner and each type
// survive the action codec.
TEST(BinaryFormat, ActionsAtTheRankLimitRoundTrip) {
  for (int t = 0; t <= static_cast<int>(tit::ActionType::Scatter); ++t) {
    const tit::Action a{static_cast<tit::ActionType>(t), tit::kMaxRanks - 1, 2147483647, 12,
                        34.5};
    std::vector<std::uint8_t> bytes;
    encode_action(bytes, a);
    std::size_t pos = 0;
    EXPECT_EQ(decode_action(bytes.data(), bytes.size(), pos, tit::kMaxRanks - 1), a);
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST(BinaryFormat, WriterRefusesMoreThanMaxRanks) {
  const fs::path path = temp_file("maxranks");
  EXPECT_THROW(Writer(path.string(), tit::kMaxRanks + 1), ConfigError);
  EXPECT_FALSE(fs::exists(path));  // refused before the file is created
}

// ---------- corruption & truncation ----------------------------------------

fs::path write_sample(const std::string& name, int actions_per_rank = 200) {
  tit::Trace trace(2);
  for (int i = 0; i < actions_per_rank; ++i) {
    trace.push({tit::ActionType::Compute, 0, -1, static_cast<double>(1000 + i), 0});
    trace.push({tit::ActionType::Compute, 1, -1, static_cast<double>(2000 + i), 0});
  }
  const fs::path path = temp_file(name);
  write_binary_trace(trace, path.string(), WriterOptions{64});
  return path;
}

std::vector<char> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(BinaryFormat, TruncationAnywhereIsRejected) {
  const fs::path path = write_sample("trunc");
  const std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 40u);
  // Chop at several depths: inside header, inside a frame, inside the
  // footer. Every truncation must be detected at open (the footer and
  // index are gone or out of bounds), never served as a short trace.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, bytes.size() / 2, bytes.size() - 5}) {
    spit(path, std::vector<char>(bytes.begin(), bytes.begin() + static_cast<long>(keep)));
    EXPECT_THROW(Reader{path.string()}, Error) << "kept " << keep << " bytes";
  }
  fs::remove(path);
}

TEST(BinaryFormat, CorruptActionFrameIsRejected) {
  const fs::path path = write_sample("corrupt");
  std::vector<char> bytes = slurp(path);
  // Flip one byte inside the first action frame's payload (the header is 12
  // bytes, the frame preamble a handful more; offset 30 is payload).
  bytes[30] = static_cast<char>(bytes[30] ^ 0x40);
  spit(path, bytes);

  Reader reader(path.string());  // index is intact, open succeeds
  EXPECT_THROW(reader.verify(), ParseError);
  tit::Action a;
  EXPECT_THROW({
    for (int r = 0; r < reader.nprocs(); ++r) {
      while (reader.next(r, a)) {
      }
    }
  }, ParseError);
  fs::remove(path);
}

TEST(BinaryFormat, CorruptIndexIsRejected) {
  const fs::path path = write_sample("corruptindex");
  std::vector<char> bytes = slurp(path);
  // The index payload sits just before the 20-byte footer.
  bytes[bytes.size() - 30] = static_cast<char>(bytes[bytes.size() - 30] ^ 0x01);
  spit(path, bytes);
  EXPECT_THROW(Reader{path.string()}, Error);
  fs::remove(path);
}

// A declared size that only fits when added to an offset and wrapped past
// 2^64 used to read out of bounds (SEGV in crc32) or allocate from the
// wrapped size (std::length_error).  Every one must be a CorruptFrameError,
// in both modes: recover mode can only skip action frames the index vouches
// for.
TEST(BinaryFormat, WrappedIndexSizeIsCorruptFrame) {
  const fs::path path = temp_file("wrappedindex");
  test::write_wrapped_index_titb(path);
  ASSERT_EQ(fs::file_size(path), 53u);
  for (const bool recover : {false, true}) {
    ReaderOptions options;
    options.recover = recover;
    EXPECT_THROW(Reader(path.string(), options), CorruptFrameError) << "recover=" << recover;
    EXPECT_THROW(SharedTrace::load(path.string(), options), CorruptFrameError)
        << "recover=" << recover;
  }
  fs::remove(path);
}

/// The bytes of a one-rank file with one action frame whose preamble and
/// index entry both declare `payload_bytes`, and `entries` index entries
/// declared in the index preamble (1 unless forged).
std::vector<std::uint8_t> forged_file(std::uint64_t payload_bytes, std::uint64_t entries = 1) {
  std::vector<std::uint8_t> bytes;
  binio::put_u32(bytes, kMagic);
  binio::put_u16(bytes, kVersion);
  binio::put_u16(bytes, 0);
  binio::put_u32(bytes, 1);
  const std::uint64_t offset = bytes.size();
  bytes.push_back(kActionFrame);
  binio::put_varint(bytes, 0);  // rank
  binio::put_varint(bytes, 1);  // actions
  binio::put_varint(bytes, payload_bytes);
  encode_action(bytes, {tit::ActionType::Compute, 0, -1, 1000, 0});
  binio::put_u32(bytes, 0);  // CRC
  std::vector<std::uint8_t> index;
  binio::put_varint(index, 0);
  binio::put_varint(index, offset);
  binio::put_varint(index, 1);
  binio::put_varint(index, payload_bytes);
  const std::uint64_t index_offset = bytes.size();
  put_frame(bytes, kIndexFrame, entries, entries, index);
  binio::put_u64(bytes, index_offset);
  binio::put_u64(bytes, 0);  // no checkpoints
  binio::put_u64(bytes, 1);  // actions
  binio::put_u32(bytes, kEndMagic);
  return bytes;
}

void spit(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(BinaryFormat, WrappedFrameSizeFailsAtOpen) {
  // Frame offset 12: offset + size + 4 wraps to 1, inside the file.
  const std::uint64_t wrapped = 0 - std::uint64_t{12} - 3;
  const fs::path path = temp_file("wrappedframe");
  spit(path, forged_file(wrapped));
  for (const bool recover : {false, true}) {
    ReaderOptions options;
    options.recover = recover;
    EXPECT_THROW(Reader(path.string(), options), CorruptFrameError) << "recover=" << recover;
  }
  EXPECT_THROW(read_binary_trace(path.string()), CorruptFrameError);
  fs::remove(path);
}

TEST(BinaryFormat, HeaderPastMaxRanksFailsAtOpen) {
  // An empty one-rank file whose header then claims 2^23 + 1 ranks: refused
  // at the header, before any per-rank state is sized from it.
  const fs::path path = temp_file("headerranks");
  write_binary_trace(tit::Trace(1), path.string());
  std::vector<char> bytes = slurp(path);
  const std::uint32_t nprocs = tit::kMaxRanks + 1;
  for (std::size_t i = 0; i < 4; ++i) bytes[8 + i] = static_cast<char>(nprocs >> (8 * i));
  spit(path, bytes);
  try {
    Reader reader(path.string());
    ADD_FAILURE() << "opened a " << reader.nprocs() << "-rank header";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("bad process count 8388609"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(BinaryFormat, IndexEntryCountBeyondItsPayloadIsCorruptFrame) {
  // An entry takes at least four bytes: 2^62 entries cannot sit in a
  // 4-byte index payload, and must not be reserved for.
  const fs::path path = temp_file("entrycount");
  spit(path, forged_file(4, std::uint64_t{1} << 62));
  EXPECT_THROW(Reader(path.string()), CorruptFrameError);
  fs::remove(path);
}

TEST(BinaryFormat, NonTitbFilesAreRejected) {
  const fs::path path = temp_file("nottitb");
  {
    std::ofstream out(path);
    out << "p0 compute 956140\n";  // a text trace is not a binary trace
  }
  EXPECT_FALSE(is_binary_trace(path.string()));
  EXPECT_THROW(Reader{path.string()}, ParseError);
  EXPECT_FALSE(is_binary_trace("/nonexistent/path/trace.titb"));
  fs::remove(path);
}

TEST(BinaryFormat, MagicSniffRecognizesBinary) {
  const fs::path path = write_sample("sniff", 10);
  EXPECT_TRUE(is_binary_trace(path.string()));
  fs::remove(path);
}

// ---------- bounded buffering ----------------------------------------------

TEST(BinaryFormat, ReaderBufferingStaysWithinBudget) {
  const int nprocs = 4;
  tit::Trace trace(nprocs);
  for (int i = 0; i < 4000; ++i) {
    for (int r = 0; r < nprocs; ++r) {
      trace.push({tit::ActionType::Compute, r, -1, static_cast<double>(i), 0});
    }
  }
  const fs::path path = temp_file("budget");
  write_binary_trace(trace, path.string(), WriterOptions{128});

  Reader reader(path.string());
  // A cursor holds only the frame it is decoding: the largest frame payload
  // (plus its CRC) of each rank bounds what the reader ever buffers.
  std::vector<std::size_t> largest(static_cast<std::size_t>(nprocs), 0);
  for (const FrameRef& f : reader.frames()) {
    largest[f.rank] = std::max<std::size_t>(largest[f.rank], f.payload_bytes + 4);
  }
  const std::size_t bound = std::accumulate(largest.begin(), largest.end(), std::size_t{0});
  tit::Action a;
  // Interleave ranks the way the engines do.
  bool any = true;
  while (any) {
    any = false;
    for (int r = 0; r < nprocs; ++r) any = reader.next(r, a) || any;
  }
  EXPECT_GT(reader.peak_buffered_bytes(), 0u);
  EXPECT_LE(reader.peak_buffered_bytes(), bound);
  EXPECT_EQ(reader.buffered_bytes(), 0u);  // all cursors drained and released
  fs::remove(path);
}

}  // namespace
}  // namespace tir::titio
