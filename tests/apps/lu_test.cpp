// LU model structure: process grid, event-stream well-formedness, the
// program's storage bound and walk, volume calibration against the paper's
// reported counter values, message regimes.
#include "apps/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <vector>

namespace tir::apps {
namespace {

LuConfig make(char cls, int np, int iters = -1) {
  LuConfig cfg;
  cfg.cls = nas_class(cls);
  cfg.nprocs = np;
  cfg.iterations_override = iters;
  return cfg;
}

TEST(LuGridTest, PowerOfTwoGridsMatchNpbRule) {
  EXPECT_EQ(LuGrid(make('A', 4)).px, 2);
  EXPECT_EQ(LuGrid(make('A', 4)).py, 2);
  EXPECT_EQ(LuGrid(make('A', 8)).px, 4);
  EXPECT_EQ(LuGrid(make('A', 8)).py, 2);
  EXPECT_EQ(LuGrid(make('A', 64)).px, 8);
  EXPECT_EQ(LuGrid(make('A', 64)).py, 8);
  EXPECT_EQ(LuGrid(make('A', 128)).px, 16);
  EXPECT_EQ(LuGrid(make('A', 128)).py, 8);
}

TEST(LuGridTest, NonPowerOfTwoRejected) {
  EXPECT_THROW(LuGrid(make('A', 6)), InternalError);
}

TEST(LuGridTest, LocalSizesCoverGlobalGrid) {
  const LuGrid g(make('B', 8));  // 102 points over px=4, py=2
  int nx_total = 0;
  for (int c = 0; c < g.px; ++c) nx_total += g.nx_loc(c);
  int ny_total = 0;
  for (int r = 0; r < g.py; ++r) ny_total += g.ny_loc(r);
  EXPECT_EQ(nx_total, 102);
  EXPECT_EQ(ny_total, 102);
}

TEST(LuClassTest, KnownClasses) {
  EXPECT_EQ(nas_class('B').nx, 102);
  EXPECT_EQ(nas_class('C').nz, 162);
  EXPECT_EQ(nas_class('B').iterations, 250);
  EXPECT_THROW(nas_class('Z'), ConfigError);
}

TEST(LuVolumeTest, ClassBTotalMatchesPaperCounterValues) {
  // Paper §2.2: coarse-grain average 1.70e11 instructions per process for
  // B-8, i.e. ~1.36e12 total. The model must land within 10%.
  const LuConfig cfg = make('B', 8);
  double total = 0.0;
  for (int r = 0; r < 8; ++r) total += lu_rank_instructions(cfg, r);
  EXPECT_NEAR(total, 1.36e12, 0.10 * 1.36e12);
}

TEST(LuVolumeTest, ClassCToClassBRatioIsCubeOfExtents) {
  const double b = lu_rank_instructions(make('B', 4), 0);
  const double c = lu_rank_instructions(make('C', 4), 0);
  const double expected = std::pow(162.0 / 102.0, 3.0);
  EXPECT_NEAR(c / b, expected, 0.15 * expected);
}

TEST(LuVolumeTest, InstructionsScaleWithIterations) {
  const double i5 = lu_rank_instructions(make('A', 4, 5), 0);
  const double i10 = lu_rank_instructions(make('A', 4, 10), 0);
  // Init cost is amortized, so the ratio is slightly below 2.
  EXPECT_GT(i10 / i5, 1.8);
  EXPECT_LT(i10 / i5, 2.0);
}

TEST(LuEventsTest, SendsAndRecvsBalanceAcrossRanks) {
  const LuConfig cfg = make('A', 8, 3);
  std::map<std::pair<int, int>, long> balance;
  for (int r = 0; r < cfg.nprocs; ++r) {
    for (const LuEvent& e : LuProgram(cfg, r)) {
      if (e.type == LuEvent::Type::Send) ++balance[{r, e.partner}];
      if (e.type == LuEvent::Type::Recv) --balance[{e.partner, r}];
    }
  }
  for (const auto& [pair, count] : balance) {
    EXPECT_EQ(count, 0) << pair.first << "->" << pair.second;
  }
}

TEST(LuEventsTest, CornerRankHasTwoNeighbours) {
  const LuConfig cfg = make('A', 16, 1);
  std::set<int> partners;
  for (const LuEvent& e : LuProgram(cfg, 0)) {
    if (e.type == LuEvent::Type::Send) partners.insert(e.partner);
  }
  EXPECT_EQ(partners.size(), 2u);  // east and south only
}

TEST(LuEventsTest, InteriorRankHasFourNeighbours) {
  const LuConfig cfg = make('A', 16, 1);  // 4x4 grid; rank 5 = (1,1) interior
  std::set<int> partners;
  for (const LuEvent& e : LuProgram(cfg, 5)) {
    if (e.type == LuEvent::Type::Send) partners.insert(e.partner);
  }
  EXPECT_EQ(partners.size(), 4u);
}

TEST(LuEventsTest, SweepMessagesAreEagerSized) {
  // The paper's crucial property: LU exchanges a lot of sub-64 KiB messages.
  const LuConfig cfg = make('C', 8, 1);
  int eager = 0;
  int rendezvous = 0;
  for (const LuEvent& e : LuProgram(cfg, 5)) {
    if (e.type != LuEvent::Type::Send) continue;
    if (e.bytes < 65536.0) {
      ++eager;
    } else {
      ++rendezvous;
    }
  }
  EXPECT_GT(eager, 100);       // per-plane pencils
  EXPECT_GT(rendezvous, 0);    // rhs faces
  EXPECT_GT(eager, 20 * rendezvous);
}

TEST(LuEventsTest, MessageCountScalesWithPlanesAndIterations) {
  const LuConfig one = make('A', 4, 1);
  const LuConfig four = make('A', 4, 4);
  auto count_sends = [](const LuConfig& c) {
    int n = 0;
    for (const LuEvent& e : LuProgram(c, 0)) n += e.type == LuEvent::Type::Send ? 1 : 0;
    return n;
  };
  EXPECT_NEAR(static_cast<double>(count_sends(four)) / count_sends(one), 4.0, 0.25);
}

TEST(LuEventsTest, SingleRankHasNoPointToPoint) {
  for (const LuEvent& e : LuProgram(make('S', 1, 2), 0)) {
    EXPECT_NE(e.type, LuEvent::Type::Send);
    EXPECT_NE(e.type, LuEvent::Type::Recv);
  }
}

TEST(LuEventsTest, DeterministicGeneration) {
  const LuConfig cfg = make('B', 8, 2);
  const LuProgram pa(cfg, 3);
  const LuProgram pb(cfg, 3);
  const std::vector<LuEvent> a(pa.begin(), pa.end());
  const std::vector<LuEvent> b(pb.begin(), pb.end());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_DOUBLE_EQ(a[i].instructions, b[i].instructions);
  }
}

TEST(LuProgramTest, StoredEventsDoNotGrowWithIterations) {
  const LuProgram five(make('C', 64, 5), 9);
  const LuProgram full(make('C', 64, 250), 9);
  EXPECT_EQ(five.stored_events(), full.stored_events());
  EXPECT_LT(full.stored_events(), 2000u);  // one iteration of 162 planes
  EXPECT_GT(full.size(), 40 * five.size());
}

// Rank 0 of A-4 is the north-west corner of a 2x2 grid: its halo sends to
// and receives from south and east, its lower sweep only sends (south,
// east), its upper sweep only receives (south, east), per k-plane.
TEST(LuProgramTest, WalkYieldsTheRunsPerTypeCounts) {
  const long nz = nas_class('A').nz;
  for (const int iters : {1, 2, 5}) {
    const LuProgram program(make('A', 4, iters), 0);
    std::map<LuEvent::Type, long> count;
    for (const LuEvent& e : program) ++count[e.type];
    EXPECT_EQ(count[LuEvent::Type::Init], 1) << iters;
    EXPECT_EQ(count[LuEvent::Type::Bcast], 3) << iters;
    EXPECT_EQ(count[LuEvent::Type::Compute], 1 + iters * (2 * nz + 2)) << iters;
    EXPECT_EQ(count[LuEvent::Type::Send], iters * (2 + 2 * nz)) << iters;
    EXPECT_EQ(count[LuEvent::Type::Recv], iters * (2 + 2 * nz)) << iters;
    EXPECT_EQ(count[LuEvent::Type::AllReduce], iters == 1 ? 1 : 2) << iters;
    EXPECT_EQ(count[LuEvent::Type::Finalize], 1) << iters;
    EXPECT_EQ(static_cast<std::size_t>(std::distance(program.begin(), program.end())),
              program.size())
        << iters;
  }
}

// The norm allreduce follows the add of the first and of the last
// iteration; finalize closes the walk.
TEST(LuProgramTest, NormFollowsTheFirstAndLastIteration) {
  const LuProgram program(make('S', 1, 4), 0);
  std::vector<LuEvent::Type> after_add;
  LuEvent::Type prev = LuEvent::Type::Init;
  LuPhase prev_phase = LuPhase::Init;
  int adds = 0;
  for (const LuEvent& e : program) {
    if (prev_phase == LuPhase::Add) after_add.push_back(e.type);
    if (e.phase == LuPhase::Add) ++adds;
    prev = e.type;
    prev_phase = e.phase;
  }
  EXPECT_EQ(adds, 4);
  EXPECT_EQ(prev, LuEvent::Type::Finalize);
  // A single rank has no halo: the next iteration opens with its rhs compute.
  const std::vector<LuEvent::Type> expected = {LuEvent::Type::AllReduce, LuEvent::Type::Compute,
                                               LuEvent::Type::Compute, LuEvent::Type::AllReduce};
  EXPECT_EQ(after_add, expected);
}

TEST(LuWorkingSetTest, PaperCacheRegimes) {
  const double mib = 1 << 20;
  // Bordereau (1 MiB L2): A-4 fits, B-4 / C-4 / C-8 do not (paper §2.3).
  EXPECT_LT(lu_working_set_bytes(make('A', 4), 0), mib);
  EXPECT_GT(lu_working_set_bytes(make('B', 4), 0), mib);
  EXPECT_GT(lu_working_set_bytes(make('C', 4), 0), mib);
  EXPECT_GT(lu_working_set_bytes(make('C', 8), 0), mib);
  // Graphene (2 MiB): the evaluated B instances all fit (paper §3.4).
  for (const int np : {8, 16, 32, 64, 128}) {
    EXPECT_LT(lu_working_set_bytes(make('B', np), 0), 2 * mib) << np;
  }
}

TEST(LuWorkingSetTest, ShrinksWithProcessCount) {
  EXPECT_GT(lu_working_set_bytes(make('B', 8), 0), lu_working_set_bytes(make('B', 64), 0));
}

TEST(LuConfigTest, LabelFormat) { EXPECT_EQ(make('B', 64).label(), "B-64"); }

}  // namespace
}  // namespace tir::apps
