// SharedTrace: one immutable decoded trace, many independent cursors.
// Covers cursor independence and interleaving, rewind semantics, the
// decode-once TITB load path, source reuse across sessions (the fixed
// second-replay-yields-nothing bug), concurrent replays from one
// shared trace being bit-identical to serial ones, and the packed form
// the prediction service caches.
#include "titio/shared.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <thread>

#include "apps/cg.hpp"
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

core::ReplayConfig config() {
  core::ReplayConfig cfg;
  cfg.rates = {1e9};
  cfg.mpi.piecewise = smpi::PiecewiseModel();
  return cfg;
}

tit::Trace two_rank_trace() {
  return tit::parse_trace_string(
      "p0 compute 1e9\n"
      "p0 send p1 1024\n"
      "p1 recv p0 1024\n"
      "p1 compute 2e9\n",
      2);
}

TEST(SharedTrace, CursorsAreIndependent) {
  const SharedTrace shared(two_rank_trace());
  SharedTrace::Cursor a = shared.cursor();
  SharedTrace::Cursor b = shared.cursor();

  tit::Action act;
  ASSERT_TRUE(a.next(0, act));
  EXPECT_EQ(act.type, tit::ActionType::Compute);
  ASSERT_TRUE(a.next(0, act));
  EXPECT_EQ(act.type, tit::ActionType::Send);
  EXPECT_FALSE(a.next(0, act));

  // b's position is untouched by a's consumption, and ranks interleave
  // freely within one cursor.
  ASSERT_TRUE(b.next(1, act));
  EXPECT_EQ(act.type, tit::ActionType::Recv);
  ASSERT_TRUE(b.next(0, act));
  EXPECT_EQ(act.type, tit::ActionType::Compute);
  ASSERT_TRUE(b.next(1, act));
  EXPECT_EQ(act.type, tit::ActionType::Compute);
  EXPECT_FALSE(b.next(1, act));
}

TEST(SharedTrace, CursorRewindRestartsEveryRank) {
  const SharedTrace shared(two_rank_trace());
  SharedTrace::Cursor c = shared.cursor();
  tit::Action act;
  while (c.next(0, act)) {
  }
  while (c.next(1, act)) {
  }
  c.rewind();
  ASSERT_TRUE(c.next(0, act));
  EXPECT_EQ(act.type, tit::ActionType::Compute);
  ASSERT_TRUE(c.next(1, act));
  EXPECT_EQ(act.type, tit::ActionType::Recv);
}

TEST(SharedTrace, CursorReplaysMatchMemorySource) {
  const apps::CgConfig cg{/*nprocs=*/8, /*iterations=*/12};
  const tit::Trace trace = apps::cg_trace(cg);
  const platform::Platform p = cluster(8);
  const core::ReplayConfig cfg = config();

  const core::ReplayResult direct = core::replay(core::Backend::Smpi, trace, p, cfg);

  const SharedTrace shared(trace);
  SharedTrace::Cursor c1 = shared.cursor();
  const core::ReplayResult via_cursor = core::replay(core::Backend::Smpi, c1, p, cfg);
  EXPECT_EQ(direct.simulated_time, via_cursor.simulated_time);
  EXPECT_EQ(direct.engine_steps, via_cursor.engine_steps);
  EXPECT_EQ(direct.actions_replayed, via_cursor.actions_replayed);

  // The same cursor replays again through the session rewind.
  const core::ReplayResult again = core::replay(core::Backend::Smpi, c1, p, cfg);
  EXPECT_EQ(direct.simulated_time, again.simulated_time);
  EXPECT_EQ(direct.actions_replayed, again.actions_replayed);
}

TEST(SharedTrace, ConcurrentCursorReplaysAreBitIdentical) {
  const apps::CgConfig cg{/*nprocs=*/4, /*iterations=*/10};
  const SharedTrace shared(apps::cg_trace(cg));
  const platform::Platform p = cluster(4);
  const core::ReplayConfig cfg = config();

  SharedTrace::Cursor serial = shared.cursor();
  const core::ReplayResult reference = core::replay(core::Backend::Smpi, serial, p, cfg);

  constexpr int kThreads = 4;
  std::vector<core::ReplayResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SharedTrace::Cursor c = shared.cursor();
      results[static_cast<std::size_t>(t)] = core::replay(core::Backend::Smpi, c, p, cfg);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const core::ReplayResult& r : results) {
    EXPECT_EQ(r.simulated_time, reference.simulated_time);
    EXPECT_EQ(r.engine_steps, reference.engine_steps);
    EXPECT_EQ(r.actions_replayed, reference.actions_replayed);
  }
}

TEST(SharedTrace, LoadDecodesTitbOnce) {
  const apps::CgConfig cg{/*nprocs=*/4, /*iterations=*/6};
  const tit::Trace trace = apps::cg_trace(cg);
  const fs::path path = test::unique_temp_path("shared_trace_load", ".titb");
  write_binary_trace(trace, path.string());

  const SharedTrace shared = SharedTrace::load(path.string());
  EXPECT_EQ(shared.nprocs(), trace.nprocs());
  EXPECT_EQ(shared.total_actions(), trace.total_actions());
  EXPECT_EQ(shared.skipped_actions(), 0u);

  // Two cursors share the decoded actions: the trace object is the same
  // instance behind both (no per-cursor copy).
  EXPECT_EQ(&shared.trace(), shared.share().get());

  const platform::Platform p = cluster(4);
  const core::ReplayConfig cfg = config();
  SharedTrace::Cursor c = shared.cursor();
  EXPECT_EQ(core::replay(core::Backend::Smpi, c, p, cfg).simulated_time,
            core::replay(core::Backend::Smpi, trace, p, cfg).simulated_time);
  fs::remove(path);
}

TEST(SourceReuse, MemorySourceSecondReplayYieldsSameResult) {
  // The old behavior silently replayed zero actions the second time a
  // MemorySource was handed to a back-end; sessions now rewind it.
  const tit::Trace trace = two_rank_trace();
  MemorySource source(trace);
  const platform::Platform p = cluster(2);
  const core::ReplayConfig cfg = config();

  const core::ReplayResult first = core::replay(core::Backend::Smpi, source, p, cfg);
  const core::ReplayResult second = core::replay(core::Backend::Smpi, source, p, cfg);
  EXPECT_GT(first.actions_replayed, 0u);
  EXPECT_EQ(first.actions_replayed, second.actions_replayed);
  EXPECT_EQ(first.simulated_time, second.simulated_time);
}

TEST(SourceReuse, SinglePassReaderSecondReplayThrowsConfigError) {
  const tit::Trace trace = two_rank_trace();
  const fs::path path = test::unique_temp_path("shared_trace_reuse", ".titb");
  write_binary_trace(trace, path.string());

  Reader reader(path.string());
  const platform::Platform p = cluster(2);
  const core::ReplayConfig cfg = config();
  EXPECT_GT(core::replay(core::Backend::Smpi, reader, p, cfg).actions_replayed, 0u);
  EXPECT_THROW(core::replay(core::Backend::Smpi, reader, p, cfg), ConfigError);
  fs::remove(path);
}

/// Every field of `a` and `b` equal, the volumes bit for bit.
void expect_bit_identical(const tit::Action& a, const tit::Action& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.proc, b.proc);
  EXPECT_EQ(a.partner, b.partner);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.volume), std::bit_cast<std::uint64_t>(b.volume));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.volume2), std::bit_cast<std::uint64_t>(b.volume2));
}

// The codec at its edges: the highest rank, the highest partner, and
// volumes that take every encoding (elided, varint, raw double, none),
// -0.0 and a NaN payload included, for every action type.
TEST(PackedTrace, RankRoundTripIsBitExactForEveryActionType) {
  const double volumes[] = {0.0, -0.0, 1.0, 2.5, 9.3e18, 1e300,
                            std::bit_cast<double>(std::uint64_t{0x7FF8000000000123})};
  std::vector<tit::Action> actions;
  for (int type = 0; type <= static_cast<int>(tit::ActionType::Scatter); ++type) {
    for (const std::int32_t partner : {std::numeric_limits<std::int32_t>::max(), 0, -1}) {
      for (const double volume : volumes) {
        tit::Action a;
        a.type = static_cast<tit::ActionType>(type);
        a.proc = tit::kMaxRanks - 1;
        a.partner = partner;
        a.volume = volume;
        a.volume2 = -volume;
        actions.push_back(a);
      }
      tit::Action sizeless;
      sizeless.type = static_cast<tit::ActionType>(type);
      sizeless.proc = tit::kMaxRanks - 1;
      sizeless.partner = partner;
      sizeless.volume = tit::kNoVolume;
      actions.push_back(sizeless);
    }
  }
  std::vector<std::uint8_t> bytes;
  pack_actions(bytes, actions);
  const std::vector<tit::Action> back =
      unpack_actions(bytes, actions.size(), tit::kMaxRanks - 1);
  ASSERT_EQ(back.size(), actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) expect_bit_identical(back[i], actions[i]);

  // The count must match the bytes exactly.
  EXPECT_THROW(unpack_actions(bytes, actions.size() - 1, 0), ParseError);
  EXPECT_THROW(unpack_actions(bytes, actions.size() + 1, 0), ParseError);
  EXPECT_THROW(unpack_actions(bytes, std::numeric_limits<std::uint64_t>::max(), 0), ParseError);
}

// A packed TITB or text trace unpacks to the same actions, content hash
// and recovery count, and replays bit-identically, at about a quarter of
// the decoded size.
TEST(PackedTrace, UnpackRebuildsTheTraceAndReplaysBitIdentically) {
  const tit::Trace trace = apps::cg_trace(apps::CgConfig{/*nprocs=*/4, /*iterations=*/6});
  const fs::path path = test::unique_temp_path("packed_trace", ".titb");
  write_binary_trace(trace, path.string());
  const platform::Platform p = cluster(4);
  const core::ReplayConfig cfg = config();

  for (const SharedTrace& shared : {SharedTrace::load(path.string()), SharedTrace(trace)}) {
    const PackedTrace packed(shared);
    EXPECT_EQ(packed.nprocs(), shared.nprocs());
    EXPECT_EQ(packed.content_hash(), shared.content_hash());
    EXPECT_LT(packed.packed_bytes(), shared.total_actions() * sizeof(tit::Action) / 3);

    const SharedTrace unpacked = packed.unpack();
    EXPECT_EQ(unpacked.content_hash(), shared.content_hash());
    EXPECT_EQ(unpacked.skipped_actions(), shared.skipped_actions());
    ASSERT_EQ(unpacked.nprocs(), shared.nprocs());
    for (int r = 0; r < shared.nprocs(); ++r) {
      const std::vector<tit::Action>& want = shared.trace().actions(r);
      const std::vector<tit::Action>& got = unpacked.trace().actions(r);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got.capacity(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) expect_bit_identical(got[i], want[i]);
    }
    SharedTrace::Cursor a = shared.cursor();
    SharedTrace::Cursor b = unpacked.cursor();
    EXPECT_EQ(core::replay(core::Backend::Smpi, a, p, cfg).simulated_time,
              core::replay(core::Backend::Smpi, b, p, cfg).simulated_time);
  }
  fs::remove(path);
}

}  // namespace
}  // namespace tir::titio
