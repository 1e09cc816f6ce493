// Streaming replay: a titio::Reader driving the engines must be
// indistinguishable from the materialized path (bit-identical simulated
// time on both back-ends), and its memory must stay bounded by one frame
// per rank even for multi-million-action traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <vector>

#include "apps/cg.hpp"
#include "apps/jacobi.hpp"
#include "core/replay.hpp"
#include "platform/clusters.hpp"
#include "support/temp_dir.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace tir::titio {
namespace {

namespace fs = std::filesystem;

platform::Platform cluster(int n) {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = n;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);
  return p;
}

/// What a reader may buffer at most: the largest frame payload (plus its
/// CRC) of each rank, since a cursor holds only the frame it is decoding.
std::size_t one_frame_per_rank(const Reader& reader) {
  std::vector<std::size_t> largest(static_cast<std::size_t>(reader.nprocs()), 0);
  for (const FrameRef& f : reader.frames()) {
    largest[f.rank] = std::max<std::size_t>(largest[f.rank], f.payload_bytes + 4);
  }
  return std::accumulate(largest.begin(), largest.end(), std::size_t{0});
}

core::ReplayConfig config() {
  core::ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.mpi.piecewise = smpi::PiecewiseModel();
  return cfg;
}

void expect_stream_matches_memory(const tit::Trace& trace, const std::string& tag) {
  const fs::path path = test::unique_temp_path("titio_equiv_" + tag, ".titb");
  write_binary_trace(trace, path.string(), WriterOptions{256});
  const platform::Platform p = cluster(trace.nprocs());
  const core::ReplayConfig cfg = config();

  const double mem_smpi = core::replay(core::Backend::Smpi, trace, p, cfg).simulated_time;
  const double mem_msg = core::replay(core::Backend::Msg, trace, p, cfg).simulated_time;
  Reader smpi_reader(path.string());
  const double str_smpi = core::replay(core::Backend::Smpi, smpi_reader, p, cfg).simulated_time;
  Reader msg_reader(path.string());
  const double str_msg = core::replay(core::Backend::Msg, msg_reader, p, cfg).simulated_time;

  // Bit-identical, not merely close: the engines see the exact same actions
  // in the exact same order, only pulled through a different source.
  EXPECT_EQ(mem_smpi, str_smpi) << tag;
  EXPECT_EQ(mem_msg, str_msg) << tag;
  fs::remove(path);
}

TEST(StreamingReplay, MatchesMaterializedOnCollectiveHeavyCg) {
  expect_stream_matches_memory(apps::cg_trace(apps::CgConfig{8, 40, 1e6, 1e4, 28000.0}), "cg");
}

TEST(StreamingReplay, MatchesMaterializedOnJacobi) {
  expect_stream_matches_memory(apps::jacobi_trace(apps::JacobiConfig{6, 128, 128, 5, 10.0, 2}),
                               "jacobi");
}

TEST(StreamingReplay, FiveMillionActionsWithinAFewMegabytes) {
  // A trace far larger than what the reader buffers: 8 ranks x 640k
  // actions (5.12M), written straight to disk without ever materializing.
  // Mostly tiny computes, with a balanced send/recv ring every 1000
  // iterations so the rank cursors genuinely interleave.
  const int nprocs = 8;
  const int per_rank = 640000;
  const fs::path path = test::unique_temp_path("titio_5m", ".titb");
  std::uint64_t expected = 0;
  {
    Writer writer(path.string(), nprocs);
    for (int r = 0; r < nprocs; ++r) writer.add({tit::ActionType::Init, r, -1, 0, 0});
    for (int i = 0; i < per_rank; ++i) {
      const bool exchange = i % 1000 == 999;
      for (int r = 0; r < nprocs; ++r) {
        if (exchange) {
          writer.add({tit::ActionType::Send, r, (r + 1) % nprocs, 1024, 0});
          writer.add({tit::ActionType::Recv, r, (r + nprocs - 1) % nprocs, 1024, 0});
        } else {
          writer.add({tit::ActionType::Compute, r, -1, 1000.0 + i % 7, 0});
        }
      }
    }
    for (int r = 0; r < nprocs; ++r) writer.add({tit::ActionType::Finalize, r, -1, 0, 0});
    writer.finish();
    expected = writer.actions_written();
  }
  ASSERT_GE(expected, 5000000u);

  Reader reader(path.string());
  ASSERT_EQ(reader.total_actions(), expected);
  const std::size_t bound = one_frame_per_rank(reader);
  EXPECT_LT(bound, std::size_t{4} << 20);
  const core::ReplayResult result =
      core::replay(core::Backend::Msg, reader, cluster(nprocs), config());
  EXPECT_EQ(result.actions_replayed, expected);
  EXPECT_GT(result.simulated_time, 0.0);
  EXPECT_GT(reader.peak_buffered_bytes(), 0u);
  EXPECT_LE(reader.peak_buffered_bytes(), bound);
  fs::remove(path);
}

}  // namespace
}  // namespace tir::titio
