// Property tests of the trace layer: randomized traces survive the full
// text round trip (to_line -> parse_line, write_trace -> load_trace) and
// generated application traces always validate.
#include <gtest/gtest.h>

#include <filesystem>

#include "apps/ep.hpp"
#include "apps/jacobi.hpp"
#include "apps/lu.hpp"
#include "base/rng.hpp"
#include "support/temp_dir.hpp"
#include "tit/trace.hpp"

namespace tir::tit {
namespace {

Action random_action(rng::Sequence& rand, int nprocs) {
  static const ActionType kTypes[] = {
      ActionType::Init,    ActionType::Finalize,  ActionType::Compute, ActionType::Send,
      ActionType::Isend,   ActionType::Recv,      ActionType::Irecv,   ActionType::Wait,
      ActionType::WaitAll, ActionType::Barrier,   ActionType::Bcast,   ActionType::Reduce,
      ActionType::AllReduce, ActionType::AllToAll, ActionType::AllGather,
      ActionType::Gather,  ActionType::Scatter};
  Action a;
  a.type = kTypes[rand.next_u64() % std::size(kTypes)];
  a.proc = static_cast<std::int32_t>(rand.next_u64() % nprocs);
  const int other = static_cast<std::int32_t>(rand.next_u64() % nprocs);
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

class TraceRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceRoundTrip, LineFormatIsLossless) {
  rng::Sequence rand(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Action original = random_action(rand, 16);
    const Action reparsed = parse_line(to_line(original));
    EXPECT_EQ(reparsed, original) << to_line(original);
  }
}

TEST_P(TraceRoundTrip, FileRoundTripIsLossless) {
  rng::Sequence rand(GetParam());
  const int nprocs = 2 + static_cast<int>(rand.next_u64() % 6);
  Trace trace(nprocs);
  for (int i = 0; i < 300; ++i) trace.push(random_action(rand, nprocs));

  const std::filesystem::path dir = test::unique_temp_dir("tit_prop");
  const std::string manifest = write_trace(trace, dir.string(), "t");
  const Trace back = load_trace(manifest);
  ASSERT_EQ(back.nprocs(), nprocs);
  for (int p = 0; p < nprocs; ++p) EXPECT_EQ(back.actions(p), trace.actions(p));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip, ::testing::Range<std::uint64_t>(1, 17));

// ---------- generated application traces always validate -----------------

class AppTraceValidity : public ::testing::TestWithParam<int> {};

TEST_P(AppTraceValidity, JacobiTracesValidate) {
  const int np = GetParam();
  EXPECT_NO_THROW(validate(apps::jacobi_trace(apps::JacobiConfig{np, 128, 128, 5, 10.0, 2})));
}

TEST_P(AppTraceValidity, EpTracesValidate) {
  const int np = GetParam();
  EXPECT_NO_THROW(validate(apps::ep_trace(apps::EpConfig{np, 1e9, 4})));
}

INSTANTIATE_TEST_SUITE_P(Widths, AppTraceValidity, ::testing::Values(1, 2, 3, 5, 8, 13, 32));

class LuTraceValidity : public ::testing::TestWithParam<std::tuple<char, int>> {};

TEST_P(LuTraceValidity, EventStreamsBalance) {
  const auto [cls, np] = GetParam();
  apps::LuConfig cfg;
  cfg.cls = apps::nas_class(cls);
  cfg.nprocs = np;
  cfg.iterations_override = 2;
  // Build a trace straight from the LU programs and validate it.
  Trace trace(np);
  for (int r = 0; r < np; ++r) {
    trace.push({ActionType::Init, r, -1, 0, 0});
    for (const apps::LuEvent& e : apps::LuProgram(cfg, r)) {
      switch (e.type) {
        case apps::LuEvent::Type::Send:
          trace.push({ActionType::Send, r, e.partner, e.bytes, 0});
          break;
        case apps::LuEvent::Type::Recv:
          trace.push({ActionType::Recv, r, e.partner, e.bytes, 0});
          break;
        case apps::LuEvent::Type::Compute:
          trace.push({ActionType::Compute, r, -1, e.instructions, 0});
          break;
        default:
          break;
      }
    }
    trace.push({ActionType::Finalize, r, -1, 0, 0});
  }
  EXPECT_NO_THROW(validate(trace));
}

INSTANTIATE_TEST_SUITE_P(
    Instances, LuTraceValidity,
    ::testing::Combine(::testing::Values('S', 'W', 'A'), ::testing::Values(1, 2, 4, 8, 16, 32)));

}  // namespace
}  // namespace tir::tit
