// Corrupt-frame recovery (ReaderOptions::recover) and typed truncation
// errors: strict mode names the damaged frame's byte offset and rank,
// best-effort mode resyncs via the index, counts what it dropped, and
// surfaces the loss through replay as ReplayResult::degraded.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "base/error.hpp"
#include "core/replay.hpp"
#include "platform/clusters.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace tir::titio {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return test::unique_temp_path("titio_rec_" + name, ".titb");
}

std::vector<char> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Compute-only two-rank trace in small frames (several frames per rank).
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

/// Flip one payload byte of the idx-th rank-`rank` frame; returns the frame.
/// The payload's last byte sits 5 bytes before the next frame (4-byte CRC
/// follows it), and frames() is in file order, so the next ref bounds it.
FrameRef corrupt_frame_of(const fs::path& path, int rank, std::size_t idx = 0) {
  std::vector<FrameRef> frames = Reader(path.string()).frames();
  std::vector<char> bytes = slurp(path);
  std::size_t seen = 0;
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    if (frames[i].rank != static_cast<std::uint32_t>(rank)) continue;
    if (seen++ < idx) continue;
    const std::size_t last_payload_byte =
        static_cast<std::size_t>(frames[i + 1].offset) - 4 - 1;
    bytes[last_payload_byte] = static_cast<char>(bytes[last_payload_byte] ^ 0x5a);
    spit(path, bytes);
    return frames[i];
  }
  throw std::runtime_error("no such frame to corrupt");
}

TEST(Recovery, MidFrameTruncationThrowsTypedErrorWithOffset) {
  // Regression: a file cut mid-frame has no footer and no index; the open
  // must fail with a CorruptFrameError carrying a byte offset, not a
  // generic parse error or (worse) a silently short trace.
  const fs::path path = write_sample("trunc");
  const std::vector<char> bytes = slurp(path);
  const std::size_t keep = bytes.size() / 2;  // inside some action frame
  spit(path, std::vector<char>(bytes.begin(), bytes.begin() + static_cast<long>(keep)));
  try {
    Reader reader(path.string());
    FAIL() << "expected CorruptFrameError";
  } catch (const CorruptFrameError& e) {
    EXPECT_EQ(e.code(), ErrorCode::CorruptFrame);
    EXPECT_GT(e.offset(), 0u);
    EXPECT_LE(e.offset(), keep);
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
  }
  fs::remove(path);
}

TEST(Recovery, TinyTruncatedFileThrowsTypedError) {
  const fs::path path = temp_file("tiny");
  spit(path, {'T', 'I', 'T', 'B', 1, 0});  // magic then nothing
  EXPECT_THROW(Reader{path.string()}, CorruptFrameError);
  fs::remove(path);
}

TEST(Recovery, StrictModeNamesOffsetAndRankOfCorruptFrame) {
  const fs::path path = write_sample("strict");
  const FrameRef bad = corrupt_frame_of(path, /*rank=*/0);
  Reader reader(path.string());  // strict default; index intact, open succeeds
  tit::Action a;
  try {
    while (reader.next(0, a)) {
    }
    FAIL() << "expected CorruptFrameError";
  } catch (const CorruptFrameError& e) {
    EXPECT_EQ(e.offset(), bad.offset);
    EXPECT_EQ(e.rank(), 0);
    EXPECT_NE(std::string(e.what()).find("p0"), std::string::npos);
  }
  fs::remove(path);
}

TEST(Recovery, RecoverModeSkipsFrameAndCountsLoss) {
  const fs::path path = write_sample("skip");
  const FrameRef bad = corrupt_frame_of(path, /*rank=*/0);
  ASSERT_GT(bad.actions, 0u);

  ReaderOptions opt;
  opt.recover = true;
  Reader reader(path.string(), opt);
  tit::Action a;
  std::uint64_t served0 = 0;
  std::uint64_t served1 = 0;
  while (reader.next(0, a)) ++served0;
  while (reader.next(1, a)) ++served1;

  EXPECT_EQ(served0 + bad.actions, reader.actions_of(0));
  EXPECT_EQ(served1, reader.actions_of(1));  // other rank untouched
  EXPECT_EQ(reader.skipped_frames(), 1u);
  EXPECT_EQ(reader.skipped_actions(), bad.actions);
  EXPECT_EQ(reader.skipped_actions_of(0), bad.actions);
  EXPECT_EQ(reader.skipped_actions_of(1), 0u);
  fs::remove(path);
}

TEST(Recovery, IndexTruncatedMidEntryDegradesToTypedError) {
  // The index's entry-count varints (written twice, byte-identical) sit
  // right after the frame-kind byte and are NOT covered by the payload CRC.
  // Bumping both by one makes the entry-parse loop run one entry past the
  // payload — the moral equivalent of an index truncated mid-entry.  Both
  // strict and recover mode must surface a typed CorruptFrameError carrying
  // the index's byte offset, not a bare parse error, a crash, or a loop.
  const fs::path path = write_sample("idxtrunc");
  std::vector<char> bytes = slurp(path);
  // v2 footer (last 28 bytes): u64 index_offset, u64 ckpt_offset,
  // u64 total_actions, u32 magic.
  std::uint64_t index_offset = 0;
  for (int b = 0; b < 8; ++b) {
    index_offset |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                        bytes[bytes.size() - kFooterBytesV2 + static_cast<std::size_t>(b)]))
                    << (8 * b);
  }
  const std::size_t e1 = static_cast<std::size_t>(index_offset) + 1;
  ASSERT_LT(static_cast<unsigned char>(bytes[e1]), 0x7f);  // single-byte varint
  ASSERT_EQ(bytes[e1], bytes[e1 + 1]);                     // entries == entries2
  ++bytes[e1];
  ++bytes[e1 + 1];
  spit(path, bytes);

  for (const bool recover : {false, true}) {
    ReaderOptions opt;
    opt.recover = recover;
    try {
      Reader reader(path.string(), opt);
      FAIL() << "expected CorruptFrameError (recover=" << recover << ")";
    } catch (const CorruptFrameError& e) {
      EXPECT_EQ(e.code(), ErrorCode::CorruptFrame);
      EXPECT_EQ(e.offset(), index_offset);
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
    }
  }
  fs::remove(path);
}

TEST(Recovery, RecoverModeDoesNotMaskIndexDamage) {
  // The index is the resync anchor; if it is damaged there is nothing to
  // recover with, so even best-effort mode must refuse the file.
  const fs::path path = write_sample("anchor");
  std::vector<char> bytes = slurp(path);
  bytes[bytes.size() - 30] = static_cast<char>(bytes[bytes.size() - 30] ^ 0x01);
  spit(path, bytes);
  ReaderOptions opt;
  opt.recover = true;
  EXPECT_THROW(Reader(path.string(), opt), CorruptFrameError);
  fs::remove(path);
}

TEST(Recovery, DegradedReplayCompletesAndIsFlagged) {
  // Best-effort end to end: a corrupt compute frame is dropped, replay
  // still produces a prediction, and the result says it is degraded.
  const fs::path path = write_sample("replay");
  const FrameRef bad = corrupt_frame_of(path, /*rank=*/0);

  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 2;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);

  ReaderOptions opt;
  opt.recover = true;
  Reader reader(path.string(), opt);
  core::ReplayConfig cfg;
  const core::ReplayResult r = core::replay(core::Backend::Smpi, reader, p, cfg);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.skipped_actions, bad.actions);
  EXPECT_GT(r.simulated_time, 0.0);
  EXPECT_EQ(r.actions_replayed + bad.actions, reader.total_actions());

  // The same file in strict mode refuses to serve the damaged rank.
  Reader strict(path.string());
  EXPECT_THROW(core::replay(core::Backend::Smpi, strict, p, cfg), CorruptFrameError);
  EXPECT_FALSE(core::ReplayResult{}.degraded);
  fs::remove(path);
}

}  // namespace
}  // namespace tir::titio
