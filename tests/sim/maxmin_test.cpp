#include "sim/maxmin.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace tir::sim {
namespace {

std::vector<platform::Link> make_links(std::initializer_list<double> caps) {
  std::vector<platform::Link> links;
  platform::LinkId id = 0;
  for (const double c : caps) {
    platform::Link l;
    l.id = id++;
    l.bandwidth = c;
    links.push_back(l);
  }
  return links;
}

constexpr double kNoCap = 1e18;

TEST(MaxMin, SingleFlowGetsLinkCapacity) {
  const auto links = make_links({100.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId route[] = {0};
  const FlowSpec flows[] = {{route, kNoCap}};
  double rates[1];
  s.solve(flows, rates);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(MaxMin, TwoFlowsShareEqually) {
  const auto links = make_links({100.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId route[] = {0};
  const FlowSpec flows[] = {{route, kNoCap}, {route, kNoCap}};
  double rates[2];
  s.solve(flows, rates);
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(MaxMin, FlowCapFreesBandwidthForOthers) {
  const auto links = make_links({100.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId route[] = {0};
  const FlowSpec flows[] = {{route, 20.0}, {route, kNoCap}};
  double rates[2];
  s.solve(flows, rates);
  EXPECT_DOUBLE_EQ(rates[0], 20.0);
  EXPECT_DOUBLE_EQ(rates[1], 80.0);
}

TEST(MaxMin, ClassicTandemNetwork) {
  // Flow A crosses links 0 and 1; flow B uses link 0; flow C uses link 1.
  // Link 0 cap 100, link 1 cap 60. Max-min: A and C first constrained by
  // link 1 (share 30); then B gets the rest of link 0 (70).
  const auto links = make_links({100.0, 60.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId ra[] = {0, 1};
  const platform::LinkId rb[] = {0};
  const platform::LinkId rc[] = {1};
  const FlowSpec flows[] = {{ra, kNoCap}, {rb, kNoCap}, {rc, kNoCap}};
  double rates[3];
  s.solve(flows, rates);
  EXPECT_DOUBLE_EQ(rates[0], 30.0);
  EXPECT_DOUBLE_EQ(rates[1], 70.0);
  EXPECT_DOUBLE_EQ(rates[2], 30.0);
}

TEST(MaxMin, AllocationsNeverExceedLinkCapacity) {
  const auto links = make_links({100.0, 50.0, 75.0});
  MaxMinSolver s;
  s.reset_links(links);
  // Randomish route mix.
  const platform::LinkId r0[] = {0, 1};
  const platform::LinkId r1[] = {1, 2};
  const platform::LinkId r2[] = {0, 2};
  const platform::LinkId r3[] = {0};
  const platform::LinkId r4[] = {1};
  const FlowSpec flows[] = {
      {r0, kNoCap}, {r1, 10.0}, {r2, kNoCap}, {r3, kNoCap}, {r4, kNoCap}};
  double rates[5];
  s.solve(flows, rates);
  double on_link[3] = {0, 0, 0};
  const FlowSpec* fp = flows;
  for (int i = 0; i < 5; ++i) {
    for (const platform::LinkId l : fp[i].route) on_link[l] += rates[i];
    EXPECT_GT(rates[i], 0.0);
  }
  EXPECT_LE(on_link[0], 100.0 + 1e-9);
  EXPECT_LE(on_link[1], 50.0 + 1e-9);
  EXPECT_LE(on_link[2], 75.0 + 1e-9);
}

TEST(MaxMin, WorkConservingOnSingleLink) {
  // With no caps, a single link is fully used.
  const auto links = make_links({90.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId route[] = {0};
  std::vector<FlowSpec> flows(3, FlowSpec{route, kNoCap});
  std::vector<double> rates(3);
  s.solve(flows, rates);
  EXPECT_NEAR(std::accumulate(rates.begin(), rates.end(), 0.0), 90.0, 1e-9);
}

TEST(MaxMin, EmptyProblemIsNoop) {
  const auto links = make_links({10.0});
  MaxMinSolver s;
  s.reset_links(links);
  s.solve({}, {});
}

TEST(MaxMin, ManyFlowsStillFair) {
  const auto links = make_links({1000.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId route[] = {0};
  std::vector<FlowSpec> flows(100, FlowSpec{route, kNoCap});
  std::vector<double> rates(100);
  s.solve(flows, rates);
  for (const double r : rates) EXPECT_NEAR(r, 10.0, 1e-9);
}

// ---------- persistent incremental flow set ------------------------------

TEST(MaxMinIncremental, PartialSolveMatchesBatchOnTandemNetwork) {
  const auto links = make_links({100.0, 60.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId ra[] = {0, 1};
  const platform::LinkId rb[] = {0};
  const platform::LinkId rc[] = {1};
  const int a = s.add_flow(ra, kNoCap);
  const int b = s.add_flow(rb, kNoCap);
  const int c = s.add_flow(rc, kNoCap);
  s.solve_partial();
  EXPECT_DOUBLE_EQ(s.rate(a), 30.0);
  EXPECT_DOUBLE_EQ(s.rate(b), 70.0);
  EXPECT_DOUBLE_EQ(s.rate(c), 30.0);
}

TEST(MaxMinIncremental, UntouchedComponentIsNotEvenVisited) {
  // Links 0 and 1 are disjoint components; churn on link 1 must never visit
  // the flow pinned to link 0.
  const auto links = make_links({100.0, 80.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r0[] = {0};
  const platform::LinkId r1[] = {1};
  const int pinned = s.add_flow(r0, kNoCap);
  s.solve_partial();
  EXPECT_DOUBLE_EQ(s.rate(pinned), 100.0);
  const std::uint64_t visited_before = s.counters().flows_visited;

  const int f1 = s.add_flow(r1, kNoCap);
  auto changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], f1);
  EXPECT_DOUBLE_EQ(s.rate(f1), 80.0);

  const int f2 = s.add_flow(r1, kNoCap);
  changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 2u);  // f1 and f2 now share link 1
  EXPECT_DOUBLE_EQ(s.rate(f1), 40.0);
  EXPECT_DOUBLE_EQ(s.rate(f2), 40.0);

  s.remove_flow(f1);
  changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], f2);
  EXPECT_DOUBLE_EQ(s.rate(f2), 80.0);

  // Three partial solves later (1 + 2 + 1 flows), the link-0 component was
  // visited zero times.
  EXPECT_EQ(s.counters().flows_visited - visited_before, 4u);
  EXPECT_DOUBLE_EQ(s.rate(pinned), 100.0);
}

TEST(MaxMinIncremental, CleanSolveIsANoop) {
  const auto links = make_links({100.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r[] = {0};
  s.add_flow(r, kNoCap);
  s.solve_partial();
  const std::uint64_t visited = s.counters().flows_visited;
  EXPECT_TRUE(s.solve_partial().empty());  // nothing dirty
  EXPECT_EQ(s.counters().flows_visited, visited);
}

TEST(MaxMinIncremental, SolveAllRevisitsEverythingButChangesNothing) {
  const auto links = make_links({100.0, 60.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r0[] = {0};
  const platform::LinkId r1[] = {1};
  s.add_flow(r0, kNoCap);
  s.add_flow(r1, kNoCap);
  s.solve_partial();
  EXPECT_TRUE(s.solve_all().empty());  // reference path recomputes same rates
  EXPECT_EQ(s.counters().flows_visited, 4u);  // 2 (partial) + 2 (full)
}

TEST(MaxMinIncremental, FlowIdsAreRecycled) {
  const auto links = make_links({100.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r[] = {0};
  const int a = s.add_flow(r, kNoCap);
  s.remove_flow(a);
  const int b = s.add_flow(r, kNoCap);
  EXPECT_EQ(a, b);
  EXPECT_EQ(s.active_flows(), 1u);
}

// The scratch-shrink escape hatch: a high-water-mark solve must not pin its
// peak capacity forever once the load is gone.
TEST(MaxMinIncremental, ShrinkToFitReleasesHighWaterMarkScratch) {
  const auto links = make_links({1000.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r[] = {0};
  std::vector<int> ids;
  for (int i = 0; i < 5000; ++i) ids.push_back(s.add_flow(r, kNoCap));
  s.solve_partial();
  for (const int id : ids) s.remove_flow(id);
  s.solve_partial();

  const std::size_t peak = s.scratch_bytes();
  s.shrink_to_fit();
  EXPECT_LT(s.scratch_bytes(), peak / 10) << "peak=" << peak;

  // Still fully functional after shrinking.
  const int a = s.add_flow(r, kNoCap);
  const int b = s.add_flow(r, kNoCap);
  s.solve_partial();
  EXPECT_DOUBLE_EQ(s.rate(a), 500.0);
  EXPECT_DOUBLE_EQ(s.rate(b), 500.0);
}

TEST(MaxMinIncremental, ShrinkToFitPreservesActiveFlows) {
  const auto links = make_links({100.0, 60.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId ra[] = {0, 1};
  const platform::LinkId rb[] = {0};
  const int a = s.add_flow(ra, kNoCap);
  const int b = s.add_flow(rb, kNoCap);
  s.solve_partial();
  s.shrink_to_fit();
  EXPECT_EQ(s.active_flows(), 2u);
  // Both bound by link 0's fair share (100/2); rates survive the shrink.
  EXPECT_DOUBLE_EQ(s.rate(a), 50.0);
  EXPECT_DOUBLE_EQ(s.rate(b), 50.0);
  s.remove_flow(a);
  const auto changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_DOUBLE_EQ(s.rate(b), 100.0);
}

// ---------- slack links ---------------------------------------------------
//
// A link whose capacity exceeds the sum of its flows' caps can never bind;
// the partial path neither walks nor fills through it.

TEST(MaxMinSlack, LoneFlowOnSlackLinksRunsAtItsCapUnfilled) {
  const auto links = make_links({100.0, 80.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r[] = {0, 1};
  const int f = s.add_flow(r, 30.0);
  const auto changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], f);
  EXPECT_EQ(s.rate(f), 30.0);  // exactly its cap
  EXPECT_EQ(s.counters().flows_visited, 0u);
  // The reference fills it and agrees.
  EXPECT_TRUE(s.solve_all().empty());
  EXPECT_EQ(s.counters().flows_visited, 1u);
}

TEST(MaxMinSlack, SlackLinkDoesNotCoupleItsFlows) {
  // Link 0 (capacity 100) carries a and b, caps 30 + 30: slack.  Link 1
  // (capacity 40) is shared by b, c and d and binds.  Removing c re-solves
  // b and d through link 1 but must not walk on to a through slack link 0.
  const auto links = make_links({100.0, 40.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId ra[] = {0};
  const platform::LinkId rb[] = {0, 1};
  const platform::LinkId r1[] = {1};
  const int a = s.add_flow(ra, 30.0);
  const int b = s.add_flow(rb, 30.0);
  const int c = s.add_flow(r1, 30.0);
  const int d = s.add_flow(r1, 30.0);
  s.solve_partial();
  EXPECT_EQ(s.rate(a), 30.0);
  EXPECT_DOUBLE_EQ(s.rate(b), 40.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.rate(d), 40.0 / 3.0);
  const std::uint64_t visited = s.counters().flows_visited;
  s.remove_flow(c);
  const auto changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0], b);
  EXPECT_EQ(changed[1], d);
  EXPECT_EQ(s.rate(b), 20.0);
  EXPECT_EQ(s.rate(d), 20.0);
  EXPECT_EQ(s.counters().flows_visited - visited, 2u);  // b and d, not a
  EXPECT_EQ(s.rate(a), 30.0);
}

TEST(MaxMinSlack, RemovalThatTurnsALinkSlackRaisesTheSurvivor) {
  const auto links = make_links({10.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r[] = {0};
  const int a = s.add_flow(r, 8.0);
  const int b = s.add_flow(r, 8.0);
  s.solve_partial();
  EXPECT_EQ(s.rate(a), 5.0);
  EXPECT_EQ(s.rate(b), 5.0);
  // 8 < 10: the link is slack after the removal but was not before, so the
  // removal must still dirty it.
  s.remove_flow(a);
  const auto changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], b);
  EXPECT_EQ(s.rate(b), 8.0);
}

TEST(MaxMinSlack, HugeCapsDoNotSkewTheVerdict) {
  // 40 + 50 + 70 = 160 > 150: the link binds once the 1e18 flow leaves.  A
  // running total would read 1e18 + 40 + 50 + 70 - 1e18 = 128 (the small
  // caps round away next to 1e18) and call the link slack.
  const auto links = make_links({150.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r[] = {0};
  const int huge = s.add_flow(r, 1e18);
  const int f40 = s.add_flow(r, 40.0);
  const int f50 = s.add_flow(r, 50.0);
  const int f70 = s.add_flow(r, 70.0);
  s.solve_partial();
  s.remove_flow(huge);
  s.solve_partial();
  EXPECT_EQ(s.rate(f40), 40.0);
  EXPECT_EQ(s.rate(f50), 50.0);
  EXPECT_EQ(s.rate(f70), 60.0);  // 150 - 40 - 50, not its cap
  MaxMinSolver ref;
  ref.reset_links(links);
  ref.add_flow(r, 40.0);
  ref.add_flow(r, 50.0);
  ref.add_flow(r, 70.0);
  ref.solve_all();
  EXPECT_EQ(s.rate(f70), ref.rate(2));

  // And the other way: with 10 + 20 left the link is slack, and both flows
  // run at their caps without being filled.
  s.remove_flow(f70);
  s.remove_flow(f50);
  const int f20 = s.add_flow(r, 20.0);
  const std::uint64_t visited = s.counters().flows_visited;
  s.solve_partial();
  EXPECT_EQ(s.rate(f40), 40.0);
  EXPECT_EQ(s.rate(f20), 20.0);
  EXPECT_EQ(s.counters().flows_visited, visited);
}

TEST(MaxMinSlack, QueuedFlowRemovedBeforeItsSolveIsForgotten) {
  const auto links = make_links({100.0});
  MaxMinSolver s;
  s.reset_links(links);
  const platform::LinkId r[] = {0};
  // Added and removed before any solve, then the registry is dropped: the
  // queued id must not outlive it.
  s.remove_flow(s.add_flow(r, 10.0));
  s.shrink_to_fit();
  EXPECT_TRUE(s.solve_partial().empty());
  s.remove_flow(s.add_flow(r, 10.0));
  s.reset_links(links);
  EXPECT_TRUE(s.solve_partial().empty());
  // A recycled id queued twice is still solved once.
  const int a = s.add_flow(r, 10.0);
  s.remove_flow(a);
  const int b = s.add_flow(r, 25.0);
  EXPECT_EQ(a, b);
  const auto changed = s.solve_partial();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(s.rate(b), 25.0);
}

}  // namespace
}  // namespace tir::sim
