// Batched TITB decode (ReaderOptions::decode_batch): the batch size is a
// pure performance knob, so delivered actions, error timing and recovery
// accounting must be bit-identical for every value — including batches that
// straddle a frame's CRC boundary, single-action frames, a decode failure
// surfacing mid-batch, a frame with trailing bytes, and session restarts
// with a half-served batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "base/binio.hpp"
#include "base/error.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace tir::titio {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return test::unique_temp_path("titio_batch_" + name, ".titb");
}

std::vector<char> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Two-rank compute trace with varied encodings (varint and f64 volumes) so
/// actions have different byte widths inside each frame.
fs::path write_sample(const std::string& name, int actions_per_rank,
                      std::uint32_t frame_actions) {
  tit::Trace trace(2);
  for (int i = 0; i < actions_per_rank; ++i) {
    const double v0 = (i % 3 == 0) ? static_cast<double>(i) + 0.5  // f64 path
                                   : static_cast<double>(1000 + i);  // varint path
    trace.push({tit::ActionType::Compute, 0, -1, v0, 0});
    trace.push({tit::ActionType::Compute, 1, -1, static_cast<double>(2000 + i), 0});
  }
  const fs::path path = temp_file(name);
  write_binary_trace(trace, path.string(), WriterOptions{frame_actions});
  return path;
}

/// Drain one rank with the given batch size.
std::vector<tit::Action> drain(const fs::path& path, int rank, std::size_t batch,
                               bool recover = false) {
  ReaderOptions opt;
  opt.decode_batch = batch;
  opt.recover = recover;
  Reader reader(path.string(), opt);
  std::vector<tit::Action> got;
  tit::Action a;
  while (reader.next(rank, a)) got.push_back(a);
  return got;
}

bool same_actions(const std::vector<tit::Action>& a, const std::vector<tit::Action>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].proc != b[i].proc || a[i].partner != b[i].partner ||
        a[i].volume != b[i].volume || a[i].volume2 != b[i].volume2) {
      return false;
    }
  }
  return true;
}

/// Overwrite the type byte of the k-th action inside rank-`rank`'s first
/// frame with an unknown type, then recompute the payload CRC: the damage
/// is invisible to the frame loader (CRC passes) and only surfaces when the
/// decoder reaches that action — the mid-batch failure path.
FrameRef corrupt_kth_action(const fs::path& path, int rank, std::uint64_t k) {
  const std::vector<FrameRef> frames = Reader(path.string()).frames();
  for (const FrameRef& frame : frames) {
    if (frame.rank != static_cast<std::uint32_t>(rank)) continue;
    if (k >= frame.actions) throw std::runtime_error("frame too short to corrupt");
    std::vector<char> bytes = slurp(path);
    auto* const base = reinterpret_cast<std::uint8_t*>(bytes.data());
    // Skip the preamble: kind byte plus rank/count/size varints.
    std::size_t pos = static_cast<std::size_t>(frame.offset) + 1;
    binio::get_varint(base, bytes.size(), pos);
    binio::get_varint(base, bytes.size(), pos);
    binio::get_varint(base, bytes.size(), pos);
    std::uint8_t* const payload = base + pos;
    const auto payload_bytes = static_cast<std::size_t>(frame.payload_bytes);
    std::size_t p = 0;
    for (std::uint64_t i = 0; i < k; ++i) {
      decode_action(payload, payload_bytes, p, rank);
    }
    payload[p] = 0xFF;  // no such ActionType
    const std::uint32_t crc = binio::crc32(payload, payload_bytes);
    for (int b = 0; b < 4; ++b) {
      payload[payload_bytes + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(crc >> (8 * b));
    }
    spit(path, bytes);
    return frame;
  }
  throw std::runtime_error("no frame of that rank");
}

/// Make rank `rank`'s first frame claim one action fewer than its payload
/// holds, in its preamble, its index entry and the footer total, with every
/// CRC still valid: decoding the last claimed action leaves trailing bytes.
/// Needs single-byte action counts (frames of 2..127 actions).  Returns the
/// frame's new action count.
std::uint64_t understate_action_count(const fs::path& path, int rank) {
  std::vector<char> bytes = slurp(path);
  auto* const base = reinterpret_cast<std::uint8_t*>(bytes.data());
  const Reader reader(path.string());
  const auto want = static_cast<std::uint32_t>(rank);
  const auto frame = std::find_if(reader.frames().begin(), reader.frames().end(),
                                  [&](const FrameRef& f) { return f.rank == want; });
  if (frame == reader.frames().end() || frame->actions < 2 || frame->actions > 127) {
    throw std::runtime_error("no frame to shorten");
  }
  // Frame preamble: kind byte, rank varint, then the action count.
  std::size_t pos = static_cast<std::size_t>(frame->offset) + 1;
  binio::get_varint(base, bytes.size(), pos);
  --base[pos];
  // Index: kind, entry count (twice), payload size, then one
  // (rank, offset delta, actions, payload size) entry per frame, in file order.
  pos = static_cast<std::size_t>(reader.index_offset()) + 1;
  binio::get_varint(base, bytes.size(), pos);
  binio::get_varint(base, bytes.size(), pos);
  const auto payload_bytes = static_cast<std::size_t>(binio::get_varint(base, bytes.size(), pos));
  const std::size_t payload = pos;
  const auto index = static_cast<std::size_t>(frame - reader.frames().begin());
  for (std::size_t i = 0; i <= index; ++i) {
    binio::get_varint(base, bytes.size(), pos);  // rank
    binio::get_varint(base, bytes.size(), pos);  // offset delta
    if (i == index) --base[pos];
    binio::get_varint(base, bytes.size(), pos);  // actions
    binio::get_varint(base, bytes.size(), pos);  // payload size
  }
  const std::uint32_t crc = binio::crc32(base + payload, payload_bytes);
  for (int b = 0; b < 4; ++b) {
    base[payload + payload_bytes + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(crc >> (8 * b));
  }
  // Footer (v2): index offset, checkpoint offset, total actions, end magic.
  std::uint8_t* const total = base + bytes.size() - kFooterBytesV2 + 16;
  std::size_t b = 0;
  while (total[b] == 0) total[b++] = 0xFF;  // borrow
  --total[b];
  spit(path, bytes);
  return frame->actions - 1;
}

TEST(BatchedDecode, AnyBatchSizeDeliversTheSameActions) {
  // 64-action frames and batch sizes that do not divide 64: every few
  // fills, a batch is clamped at the frame's CRC boundary and the next
  // fill starts in the following frame.
  const fs::path path = write_sample("sizes", 200, 64);
  const std::vector<tit::Action> ref0 = drain(path, 0, 1);
  const std::vector<tit::Action> ref1 = drain(path, 1, 1);
  ASSERT_EQ(ref0.size(), 200u);
  ASSERT_EQ(ref1.size(), 200u);
  for (const std::size_t batch : {std::size_t{3}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}}) {
    EXPECT_TRUE(same_actions(drain(path, 0, batch), ref0)) << "batch=" << batch;
    EXPECT_TRUE(same_actions(drain(path, 1, batch), ref1)) << "batch=" << batch;
  }
  // Interleaved pulls (the engines alternate ranks per event) keep the two
  // cursors' batches independent.
  ReaderOptions opt;
  opt.decode_batch = 5;
  Reader reader(path.string(), opt);
  tit::Action a;
  for (std::size_t i = 0; i < ref0.size(); ++i) {
    ASSERT_TRUE(reader.next(0, a));
    EXPECT_EQ(a.volume, ref0[i].volume);
    ASSERT_TRUE(reader.next(1, a));
    EXPECT_EQ(a.volume, ref1[i].volume);
  }
  EXPECT_FALSE(reader.next(0, a));
  EXPECT_FALSE(reader.next(1, a));
  fs::remove(path);
}

TEST(BatchedDecode, SingleActionFramesServeAllActions) {
  // Every frame holds one action: each fill decodes exactly one action and
  // immediately hits the frame boundary.
  const fs::path path = write_sample("single", 50, 1);
  const std::vector<tit::Action> ref = drain(path, 0, 1);
  ASSERT_EQ(ref.size(), 50u);
  EXPECT_TRUE(same_actions(drain(path, 0, 64), ref));
  EXPECT_TRUE(same_actions(drain(path, 1, 64), drain(path, 1, 1)));
  fs::remove(path);
}

TEST(BatchedDecode, StrictModeServesCleanPrefixThenThrowsMidBatch) {
  // The bad action sits mid-frame and mid-batch; the cleanly decoded prefix
  // must still be served before the ParseError surfaces, exactly as the
  // unbatched decoder behaved.
  const fs::path path = write_sample("strict", 40, 16);
  const std::uint64_t k = 5;
  corrupt_kth_action(path, /*rank=*/0, k);
  ReaderOptions opt;
  opt.decode_batch = 16;
  Reader reader(path.string(), opt);
  tit::Action a;
  std::uint64_t served = 0;
  try {
    while (reader.next(0, a)) ++served;
    FAIL() << "expected ParseError";
  } catch (const ParseError&) {
    EXPECT_EQ(served, k);
  }
  // The error is sticky: further pulls keep throwing instead of serving
  // actions from beyond the damage.
  EXPECT_THROW(reader.next(0, a), ParseError);
  // The other rank's cursor is unaffected.
  std::uint64_t other = 0;
  while (reader.next(1, a)) ++other;
  EXPECT_EQ(other, reader.actions_of(1));
  fs::remove(path);
}

TEST(BatchedDecode, RecoverModeResyncsMidBatchAndCountsLoss) {
  const fs::path path = write_sample("resync", 40, 16);
  const std::uint64_t k = 5;
  const FrameRef bad = corrupt_kth_action(path, /*rank=*/0, k);

  const std::vector<tit::Action> ref = drain(path, 0, 1, /*recover=*/true);
  for (const std::size_t batch : {std::size_t{4}, std::size_t{16}, std::size_t{100}}) {
    ReaderOptions opt;
    opt.decode_batch = batch;
    opt.recover = true;
    Reader reader(path.string(), opt);
    std::vector<tit::Action> got;
    tit::Action a;
    while (reader.next(0, a)) got.push_back(a);
    // The frame's clean prefix is delivered, the rest of the frame is
    // dropped, and the stream resumes at the next frame — identically for
    // every batch size.
    EXPECT_TRUE(same_actions(got, ref)) << "batch=" << batch;
    EXPECT_EQ(got.size() + (bad.actions - k), reader.actions_of(0)) << "batch=" << batch;
    EXPECT_EQ(reader.skipped_frames(), 1u);
    EXPECT_EQ(reader.skipped_actions(), bad.actions - k);
    EXPECT_EQ(reader.skipped_actions_of(0), bad.actions - k);
    EXPECT_EQ(reader.skipped_actions_of(1), 0u);
  }
  fs::remove(path);
}

TEST(BatchedDecode, TrailingBytesFireAtTheSameActionForEveryBatchAndPull) {
  // The frame's last claimed action is held back and delivered by a pull of
  // its own, so the trailing-bytes error (strict) or damaged-frame count
  // (recover) comes at the same action for every batch size, through
  // next_batch as through next.
  const fs::path path = write_sample("trailing", 40, 16);
  ASSERT_EQ(Reader(path.string()).version(), kVersion);
  const std::uint64_t claimed = understate_action_count(path, 0);
  for (const bool recover : {false, true}) {
    // 13 leaves a two-action tail batch: one action, then the last alone.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{13},
                                    std::size_t{16}, std::size_t{64}}) {
      for (const bool batched : {false, true}) {
        ReaderOptions opt;
        opt.decode_batch = batch;
        opt.recover = recover;
        Reader reader(path.string(), opt);
        std::vector<tit::Action> got;
        bool threw = false;
        try {
          if (batched) {
            for (auto b = reader.next_batch(0); !b.empty(); b = reader.next_batch(0)) {
              got.insert(got.end(), b.begin(), b.end());
            }
          } else {
            tit::Action a;
            while (reader.next(0, a)) got.push_back(a);
          }
        } catch (const ParseError&) {
          threw = true;
        }
        SCOPED_TRACE(testing::Message() << "recover=" << recover << " batch=" << batch
                                        << " batched=" << batched);
        if (recover) {
          EXPECT_FALSE(threw);
          EXPECT_EQ(got.size(), 39u);  // every claimed action, none retracted
          EXPECT_EQ(reader.skipped_frames(), 1u);
          EXPECT_EQ(reader.skipped_actions(), 0u);
        } else {
          EXPECT_TRUE(threw);
          EXPECT_EQ(got.size(), claimed - 1);  // raised by the frame's last action
        }
      }
    }
  }
  fs::remove(path);
}

TEST(BatchedDecode, SecondSessionMidBatchThrowsConfigError) {
  // A streaming Reader cannot rewind; starting a second session with a
  // half-served batch must still fail loudly instead of silently replaying
  // the batch remainder (or zero actions).
  const fs::path path = write_sample("session", 30, 16);
  ReaderOptions opt;
  opt.decode_batch = 8;
  Reader reader(path.string(), opt);
  reader.begin_session();
  tit::Action a;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(reader.next(0, a));  // mid-batch
  EXPECT_THROW(reader.begin_session(), ConfigError);
  fs::remove(path);
}

}  // namespace
}  // namespace tir::titio
