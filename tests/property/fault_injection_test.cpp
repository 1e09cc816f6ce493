// Fault-injection harness: randomly damage TITB trace files (bit flips,
// truncations, zeroed ranges) and assert the reader and both replay
// engines terminate in bounded time with a typed tir::Error — or succeed
// outright when the damage misses everything load-bearing — but never
// hang, crash, or serve silently wrong data past a CRC.
//
// The ctest hard timeout (and ASan/UBSan in the sanitizer CI job) turn
// "never hangs or corrupts memory" into a checkable property.
//
// PullEquivalence checks the batched pull on the same damaged files: for
// any decode batch size, draining through ActionSource::next_batch gives
// exactly what the unbatched reader (decode_batch 1, drained through next)
// gives — the same actions, the same error at the same action index, the
// same recovery accounting.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "core/replay.hpp"
#include "platform/clusters.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"
#include "titio/source.hpp"
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
      const core::ReplayResult r = core::replay(core::Backend::Smpi, reader, p, cfg);
      EXPECT_EQ(r.degraded, r.skipped_actions > 0);
    } catch (const Error&) {
      // CorruptFrameError, MalformedTraceError, DeadlockError, Watchdog...:
      // all acceptable; the property is *typed* and *bounded* failure.
    }
  }
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjection, ::testing::Range<std::uint64_t>(1, 25));

/// Everything a drain of a (possibly damaged) TITB file can observe.
struct DrainOutcome {
  std::vector<tit::Action> actions;  ///< every served action, rank by rank
  std::string error_class;           ///< dynamic type of the error, "" if none
  std::string error_message;
  std::uint64_t error_index = 0;     ///< actions served before the error
  std::uint64_t skipped_frames = 0;
  std::uint64_t skipped_actions = 0;

  bool operator==(const DrainOutcome&) const = default;
};

/// Drains every rank, stopping at the first error, through next_batch
/// (`batched`) or the one-action next().
DrainOutcome drain_outcome(const fs::path& path, bool recover, std::size_t decode_batch,
                           bool batched) {
  DrainOutcome out;
  ReaderOptions opt;
  opt.recover = recover;
  opt.decode_batch = decode_batch;
  std::unique_ptr<Reader> reader;
  try {
    reader = std::make_unique<Reader>(path.string(), opt);
    for (int r = 0; r < reader->nprocs(); ++r) {
      if (batched) {
        for (auto batch = reader->next_batch(r); !batch.empty(); batch = reader->next_batch(r)) {
          out.actions.insert(out.actions.end(), batch.begin(), batch.end());
        }
      } else {
        tit::Action a;
        while (reader->next(r, a)) out.actions.push_back(a);
      }
    }
  } catch (const Error& e) {
    out.error_class = typeid(e).name();
    out.error_message = e.what();
    out.error_index = out.actions.size();
  }
  if (reader != nullptr) {
    out.skipped_frames = reader->skipped_frames();
    out.skipped_actions = reader->skipped_actions();
  }
  return out;
}

class PullEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PullEquivalence, BatchedPullMatchesUnbatchedOnDamagedFiles) {
  const fs::path path = test::unique_temp_path("titio_pull", ".titb");
  write_binary_trace(sample_trace(), path.string(), WriterOptions{96});
  std::vector<char> bytes = slurp(path);
  rng::Sequence rand(GetParam());  // the same damage as FaultInjection's reader case
  inject_fault(bytes, rand);
  spit(path, bytes);

  for (const bool recover : {false, true}) {
    const DrainOutcome ref = drain_outcome(path, recover, 1, /*batched=*/false);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      for (const bool batched : {false, true}) {
        const DrainOutcome got = drain_outcome(path, recover, batch, batched);
        EXPECT_EQ(got.actions, ref.actions)
            << "recover=" << recover << " batch=" << batch << " batched=" << batched;
        EXPECT_EQ(got.error_class, ref.error_class) << "batch=" << batch;
        EXPECT_EQ(got.error_message, ref.error_message) << "batch=" << batch;
        EXPECT_EQ(got.error_index, ref.error_index) << "batch=" << batch;
        EXPECT_EQ(got.skipped_frames, ref.skipped_frames) << "batch=" << batch;
        EXPECT_EQ(got.skipped_actions, ref.skipped_actions) << "batch=" << batch;
      }
    }
  }
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PullEquivalence, ::testing::Range<std::uint64_t>(1, 25));

TEST(PullEquivalence, MemorySourceAfterSeekServesTheSuffixEitherWay) {
  const tit::Trace trace = sample_trace();
  const std::vector<titio::CkptRankState> cut = {{5}, {17}, {0}};
  MemorySource by_next(trace);
  MemorySource by_batch(trace);
  tit::Action a;
  // A half-served next() batch must not leak past the seek.
  ASSERT_TRUE(by_next.next(0, a));
  ASSERT_TRUE(by_next.next(1, a));
  by_next.seek(cut);
  by_batch.seek(cut);
  for (int r = 0; r < kNprocs; ++r) {
    const std::vector<tit::Action>& all = trace.actions(r);
    const std::vector<tit::Action> suffix(
        all.begin() + static_cast<std::ptrdiff_t>(cut[static_cast<std::size_t>(r)].position),
        all.end());
    std::vector<tit::Action> got_next;
    while (by_next.next(r, a)) got_next.push_back(a);
    std::vector<tit::Action> got_batch;
    for (auto batch = by_batch.next_batch(r); !batch.empty(); batch = by_batch.next_batch(r)) {
      got_batch.insert(got_batch.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(got_next, suffix) << "rank " << r;
    EXPECT_EQ(got_batch, suffix) << "rank " << r;
  }
}

}  // namespace
}  // namespace tir::titio
