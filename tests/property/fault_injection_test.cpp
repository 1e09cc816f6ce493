// Fault-injection harness: randomly damage TITB trace files (bit flips,
// truncations, zeroed ranges) and assert the reader and both replay
// engines terminate in bounded time with a typed tir::Error — or succeed
// outright when the damage misses everything load-bearing — but never
// hang, crash, or serve silently wrong data past a CRC.
//
// The ctest hard timeout (and ASan/UBSan in the sanitizer CI job) turn
// "never hangs or corrupts memory" into a checkable property.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "core/replay.hpp"
#include "platform/clusters.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace tir::titio {
namespace {

namespace fs = std::filesystem;

constexpr int kNprocs = 3;

std::vector<char> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!bytes.empty()) out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small but structurally rich trace: computes, eager and rendezvous
/// p2p in matched ring pairs, nonblocking ops, and collectives.
tit::Trace sample_trace() {
  tit::Trace trace(kNprocs);
  std::string text;
  for (int r = 0; r < kNprocs; ++r) {
    const std::string me = "p" + std::to_string(r) + " ";
    const std::string next = "p" + std::to_string((r + 1) % kNprocs);
    const std::string prev = "p" + std::to_string((r + kNprocs - 1) % kNprocs);
    text += me + "init\n";
    for (int i = 0; i < 40; ++i) {
      text += me + "compute " + std::to_string(1e5 * (i + 1)) + "\n";
      text += me + "send " + next + " 2048\n";
      text += me + "recv " + prev + " 2048\n";
      text += me + "isend " + next + " 100000\n";
      text += me + "irecv " + prev + " 100000\n";
      text += me + "waitall\n";
      text += me + "allreduce 64 100\n";
    }
    text += me + "finalize\n";
  }
  return tit::parse_trace_string(text, kNprocs);
}

/// Damage `bytes` in place, seeded: one of bit flips, truncation, zeroing.
void inject_fault(std::vector<char>& bytes, rng::Sequence& rand) {
  switch (rand.next_u64() % 3) {
    case 0: {  // up to 8 single-bit flips anywhere
      const int flips = 1 + static_cast<int>(rand.next_u64() % 8);
      for (int i = 0; i < flips; ++i) {
        const std::size_t at = rand.next_u64() % bytes.size();
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rand.next_u64() % 8)));
      }
      break;
    }
    case 1: {  // truncate to a random prefix
      bytes.resize(rand.next_u64() % bytes.size());
      break;
    }
    default: {  // zero a random range (a torn write)
      const std::size_t from = rand.next_u64() % bytes.size();
      const std::size_t len = 1 + rand.next_u64() % 256;
      for (std::size_t i = from; i < std::min(bytes.size(), from + len); ++i) bytes[i] = 0;
      break;
    }
  }
}

class FaultInjection : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultInjection, ReaderNeverHangsOrServesGarbage) {
  const fs::path path = test::unique_temp_path("titio_fault", ".titb");
  write_binary_trace(sample_trace(), path.string(), WriterOptions{96});
  std::vector<char> bytes = slurp(path);
  rng::Sequence rand(GetParam());
  inject_fault(bytes, rand);
  spit(path, bytes);

  for (const bool recover : {false, true}) {
    ReaderOptions opt;
    opt.recover = recover;
    std::uint64_t served = 0;
    try {
      Reader reader(path.string(), opt);
      tit::Action a;
      for (int r = 0; r < reader.nprocs(); ++r) {
        while (reader.next(r, a)) ++served;
      }
      // Fully drained: everything served plus everything skipped must add
      // up; strict mode may only drain if the damage missed the payloads.
      EXPECT_EQ(served + reader.skipped_actions(), reader.total_actions());
      if (!recover) {
        EXPECT_EQ(reader.skipped_actions(), 0u);
      }
    } catch (const Error&) {
      // Typed rejection is a correct outcome; anything else propagates
      // out of the test as a failure (and a hang trips the ctest timeout).
    }
  }
  fs::remove(path);
}

TEST_P(FaultInjection, ReplayOfDamagedTraceTerminatesWithTypedError) {
  const fs::path path = test::unique_temp_path("titio_fault_rp", ".titb");
  write_binary_trace(sample_trace(), path.string(), WriterOptions{96});
  std::vector<char> bytes = slurp(path);
  rng::Sequence rand(rng::mix64(GetParam()));
  inject_fault(bytes, rand);
  spit(path, bytes);

  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = kNprocs;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 5e-5;
  platform::build_flat_cluster(p, spec);

  core::ReplayConfig cfg;
  cfg.mpi.piecewise = smpi::PiecewiseModel();
  cfg.watchdog_seconds = 30.0;  // belt and braces under the ctest timeout

  // Recovered replay may drop frames and then deadlock on half a message
  // pair - that must surface as a typed diagnosis, never as a hang.
  for (const bool recover : {false, true}) {
    try {
      ReaderOptions opt;
      opt.recover = recover;
      Reader reader(path.string(), opt);
      const core::ReplayResult r = core::replay_smpi(reader, p, cfg);
      EXPECT_EQ(r.degraded, r.skipped_actions > 0);
    } catch (const Error&) {
      // CorruptFrameError, MalformedTraceError, DeadlockError, Watchdog...:
      // all acceptable; the property is *typed* and *bounded* failure.
    }
  }
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjection, ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace tir::titio
