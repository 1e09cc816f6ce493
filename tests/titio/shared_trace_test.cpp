// SharedTrace: one immutable decoded trace, many independent cursors.
// Covers cursor independence and interleaving, rewind semantics, the
// decode-once TITB load path, source reuse across sessions (the fixed
// second-replay-yields-nothing bug), and concurrent replays from one
// shared trace being bit-identical to serial ones.
#include "titio/shared.hpp"

#include <gtest/gtest.h>

#include <filesystem>
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

}  // namespace
}  // namespace tir::titio
