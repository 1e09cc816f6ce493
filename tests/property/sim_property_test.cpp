// Property-based tests of the simulation kernel: max-min allocations on
// randomized problems, core time-sharing across widths, comm conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "base/rng.hpp"
#include "platform/clusters.hpp"
#include "sim/engine.hpp"
#include "sim/maxmin.hpp"

namespace tir::sim {
namespace {

// ---------- max-min fairness on random topologies -----------------------

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, RandomProblemSatisfiesFairnessInvariants) {
  rng::Sequence rand(GetParam());
  const int n_links = 2 + static_cast<int>(rand.next_u64() % 6);
  const int n_flows = 1 + static_cast<int>(rand.next_u64() % 20);

  std::vector<platform::Link> links(static_cast<std::size_t>(n_links));
  for (int l = 0; l < n_links; ++l) {
    links[static_cast<std::size_t>(l)].id = l;
    links[static_cast<std::size_t>(l)].bandwidth = rand.next_uniform(10.0, 1000.0);
  }

  std::vector<std::vector<platform::LinkId>> routes(static_cast<std::size_t>(n_flows));
  std::vector<double> caps(static_cast<std::size_t>(n_flows));
  std::vector<FlowSpec> flows;
  for (int f = 0; f < n_flows; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    const int route_len = 1 + static_cast<int>(rand.next_u64() % n_links);
    // Distinct links per route: sample without replacement.
    std::vector<platform::LinkId> all(static_cast<std::size_t>(n_links));
    std::iota(all.begin(), all.end(), 0);
    for (int i = 0; i < route_len; ++i) {
      const auto pick = i + static_cast<int>(rand.next_u64() % (all.size() - i));
      std::swap(all[static_cast<std::size_t>(i)], all[static_cast<std::size_t>(pick)]);
    }
    routes[fi].assign(all.begin(), all.begin() + route_len);
    caps[fi] = rand.next_u64() % 3 == 0 ? rand.next_uniform(1.0, 100.0) : 1e18;
    flows.push_back(FlowSpec{routes[fi], caps[fi]});
  }

  MaxMinSolver solver;
  solver.reset_links(links);
  std::vector<double> rates(flows.size());
  solver.solve(flows, rates);

  // (1) Positivity and per-flow cap.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_GT(rates[f], 0.0);
    EXPECT_LE(rates[f], caps[f] * (1.0 + 1e-9));
  }
  // (2) Link capacities respected.
  std::vector<double> load(links.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (const platform::LinkId l : routes[f]) load[static_cast<std::size_t>(l)] += rates[f];
  }
  for (std::size_t l = 0; l < links.size(); ++l) {
    EXPECT_LE(load[l], links[l].bandwidth * (1.0 + 1e-9)) << "link " << l;
  }
  // (3) Max-min optimality certificate: every uncapped flow crosses at
  // least one saturated link (otherwise its rate could be raised).
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (rates[f] >= caps[f] * (1.0 - 1e-9)) continue;  // bound by its own cap
    bool crosses_saturated = false;
    for (const platform::LinkId l : routes[f]) {
      if (load[static_cast<std::size_t>(l)] >=
          links[static_cast<std::size_t>(l)].bandwidth * (1.0 - 1e-9)) {
        crosses_saturated = true;
        break;
      }
    }
    EXPECT_TRUE(crosses_saturated) << "flow " << f << " could be raised";
  }
  // (4) Identical routes and caps -> identical rates (fairness).
  for (std::size_t a = 0; a < flows.size(); ++a) {
    for (std::size_t b = a + 1; b < flows.size(); ++b) {
      if (routes[a] == routes[b] && caps[a] == caps[b]) {
        EXPECT_NEAR(rates[a], rates[b], 1e-6 * rates[a]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MaxMinProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------- incremental re-solve vs. from-scratch batch solve ------------

class IncrementalSolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSolveProperty, PartialResolveMatchesBatchSolveRateForRate) {
  rng::Sequence rand(GetParam());
  const int n_links = 2 + static_cast<int>(rand.next_u64() % 8);

  std::vector<platform::Link> links(static_cast<std::size_t>(n_links));
  for (int l = 0; l < n_links; ++l) {
    links[static_cast<std::size_t>(l)].id = l;
    links[static_cast<std::size_t>(l)].bandwidth = rand.next_uniform(10.0, 1000.0);
  }

  MaxMinSolver incremental;
  incremental.reset_links(links);
  MaxMinSolver reference;  // only ever used through the stateless batch path
  reference.reset_links(links);

  struct Live {
    int id;
    std::vector<platform::LinkId> route;
    double cap;
  };
  std::vector<Live> live;

  const auto check_against_batch = [&] {
    std::vector<FlowSpec> specs;
    specs.reserve(live.size());
    for (const Live& f : live) specs.push_back(FlowSpec{f.route, f.cap});
    std::vector<double> rates(specs.size());
    reference.solve(specs, rates);
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_DOUBLE_EQ(incremental.rate(live[i].id), rates[i]) << "flow id " << live[i].id;
    }
  };

  const int n_ops = 40;
  for (int op = 0; op < n_ops; ++op) {
    const bool add = live.empty() || rand.next_u64() % 3 != 0;
    if (add) {
      const int route_len = 1 + static_cast<int>(rand.next_u64() % std::min(n_links, 4));
      std::vector<platform::LinkId> all(static_cast<std::size_t>(n_links));
      std::iota(all.begin(), all.end(), 0);
      for (int i = 0; i < route_len; ++i) {
        const auto pick = i + static_cast<int>(rand.next_u64() % (all.size() - i));
        std::swap(all[static_cast<std::size_t>(i)], all[static_cast<std::size_t>(pick)]);
      }
      Live f;
      f.route.assign(all.begin(), all.begin() + route_len);
      f.cap = rand.next_u64() % 4 == 0 ? rand.next_uniform(1.0, 100.0) : 1e18;
      f.id = incremental.add_flow(f.route, f.cap);
      live.push_back(std::move(f));
    } else {
      const auto victim = static_cast<std::size_t>(rand.next_u64() % live.size());
      incremental.remove_flow(live[victim].id);
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    // Sometimes let several mutations accumulate before solving, so the
    // dirty set spans multiple components.
    if (rand.next_u64() % 3 == 0) continue;
    incremental.solve_partial();
    check_against_batch();
  }
  incremental.solve_partial();  // flush any still-dirty mutations
  check_against_batch();

  // The incremental path must actually have been cheaper than re-solving
  // everything: flows_visited counts only dirty components.
  EXPECT_GT(incremental.counters().partial_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomMutationSeeds, IncrementalSolveProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------- struct-of-arrays flow storage vs. solve_all reference --------
//
// Guards the solver's flat arena-backed storage (sim/pool.hpp SpanArena):
// two persistent solvers are driven through the same random add/remove
// sequence — one re-solving incrementally, one through solve_all() — with
// id recycling and mid-sequence shrink_to_fit() repacks, and every rate
// must stay bit-identical (==, not nearly-equal).  A back-pointer slip in
// the swap-erase bookkeeping or a stale arena span after a repack shows up
// here as a diverging rate long before it corrupts a replay.

class SoaIncrementalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoaIncrementalProperty, PartialSolveBitIdenticalToSolveAllUnderChurn) {
  rng::Sequence rand(GetParam());
  const int n_links = 2 + static_cast<int>(rand.next_u64() % 8);

  std::vector<platform::Link> links(static_cast<std::size_t>(n_links));
  for (int l = 0; l < n_links; ++l) {
    links[static_cast<std::size_t>(l)].id = l;
    links[static_cast<std::size_t>(l)].bandwidth = rand.next_uniform(10.0, 1000.0);
  }

  MaxMinSolver partial;
  partial.reset_links(links);
  MaxMinSolver full;
  full.reset_links(links);

  struct Live {
    int id;  // identical in both solvers: same mutation order, same recycling
    std::vector<platform::LinkId> route;
  };
  std::vector<Live> live;

  const int n_ops = 60;
  for (int op = 0; op < n_ops; ++op) {
    const bool add = live.empty() || rand.next_u64() % 3 != 0;
    if (add) {
      const int route_len = 1 + static_cast<int>(rand.next_u64() % std::min(n_links, 4));
      std::vector<platform::LinkId> all(static_cast<std::size_t>(n_links));
      std::iota(all.begin(), all.end(), 0);
      for (int i = 0; i < route_len; ++i) {
        const auto pick = i + static_cast<int>(rand.next_u64() % (all.size() - i));
        std::swap(all[static_cast<std::size_t>(i)], all[static_cast<std::size_t>(pick)]);
      }
      Live f;
      f.route.assign(all.begin(), all.begin() + route_len);
      const double cap = rand.next_u64() % 4 == 0 ? rand.next_uniform(1.0, 100.0) : 1e18;
      f.id = partial.add_flow(f.route, cap);
      ASSERT_EQ(full.add_flow(f.route, cap), f.id);
      live.push_back(std::move(f));
    } else {
      const auto victim = static_cast<std::size_t>(rand.next_u64() % live.size());
      partial.remove_flow(live[victim].id);
      full.remove_flow(live[victim].id);
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    // Occasionally repack the arenas mid-sequence: every live route span and
    // membership list relocates, and nothing may change observably.
    if (rand.next_u64() % 11 == 0) {
      partial.shrink_to_fit();
      full.shrink_to_fit();
    }
    if (rand.next_u64() % 3 == 0) continue;  // let dirt accumulate
    partial.solve_partial();
    full.solve_all();
    for (const Live& f : live) {
      EXPECT_EQ(partial.rate(f.id), full.rate(f.id)) << "flow id " << f.id;
    }
  }
  partial.solve_partial();
  full.solve_all();
  for (const Live& f : live) {
    EXPECT_EQ(partial.rate(f.id), full.rate(f.id)) << "flow id " << f.id;
  }
  // The incremental leg must have genuinely solved less than the reference.
  EXPECT_LE(partial.counters().flows_visited, full.counters().flows_visited);
}

INSTANTIATE_TEST_SUITE_P(RandomChurnSeeds, SoaIncrementalProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------- slack links under churn ---------------------------------------
//
// The same two-solver churn, but with caps sized like the replay's (0.5x or
// 1.0x the narrowest link on the route, some smaller, a few 1e18), so links
// keep flipping between slack (capacity above the sum of its flows' caps)
// and non-slack as flows come and go.  The partial path prunes slack links
// from its walk and its filling; solve_all() fills every flow over every
// link, so any rate the pruning moves shows up as an inequality here.

class SlackChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlackChurnProperty, PrunedPartialSolveBitIdenticalToSolveAll) {
  rng::Sequence rand(GetParam());
  const int n_links = 3 + static_cast<int>(rand.next_u64() % 8);

  std::vector<platform::Link> links(static_cast<std::size_t>(n_links));
  for (int l = 0; l < n_links; ++l) {
    links[static_cast<std::size_t>(l)].id = l;
    links[static_cast<std::size_t>(l)].bandwidth = rand.next_uniform(10.0, 1000.0);
  }

  MaxMinSolver partial;
  partial.reset_links(links);
  MaxMinSolver full;
  full.reset_links(links);

  struct Live {
    int id;
    std::vector<platform::LinkId> route;
  };
  std::vector<Live> live;

  const auto expect_identical = [&] {
    for (const Live& f : live) {
      EXPECT_EQ(partial.rate(f.id), full.rate(f.id)) << "flow id " << f.id;
    }
  };

  const int n_ops = 80;
  for (int op = 0; op < n_ops; ++op) {
    const bool add = live.empty() || rand.next_u64() % 5 < 3;
    if (add) {
      const int route_len = 1 + static_cast<int>(rand.next_u64() % 3);
      std::vector<platform::LinkId> all(static_cast<std::size_t>(n_links));
      std::iota(all.begin(), all.end(), 0);
      double narrowest = 1e300;
      for (int i = 0; i < route_len; ++i) {
        const auto pick = i + static_cast<int>(rand.next_u64() % (all.size() - i));
        std::swap(all[static_cast<std::size_t>(i)], all[static_cast<std::size_t>(pick)]);
        narrowest = std::min(narrowest, links[static_cast<std::size_t>(all[i])].bandwidth);
      }
      Live f;
      f.route.assign(all.begin(), all.begin() + route_len);
      const std::uint64_t kind = rand.next_u64() % 8;
      double cap = 0.5 * narrowest;  // an SMPI small message
      if (kind == 0) {
        cap = 1e18;  // uncapped
      } else if (kind == 1) {
        cap = 1.0 + static_cast<double>(rand.next_u64() % 100);
      } else if (kind < 4) {
        cap = narrowest;  // an MSG transfer
      }
      f.id = partial.add_flow(f.route, cap);
      ASSERT_EQ(full.add_flow(f.route, cap), f.id);  // same recycling
      live.push_back(std::move(f));
    } else {
      const auto victim = static_cast<std::size_t>(rand.next_u64() % live.size());
      partial.remove_flow(live[victim].id);
      full.remove_flow(live[victim].id);
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    if (rand.next_u64() % 9 == 0) {
      partial.shrink_to_fit();
      full.shrink_to_fit();
    }
    if (rand.next_u64() % 3 == 0) continue;  // let dirt accumulate
    partial.solve_partial();
    full.solve_all();
    expect_identical();
  }
  partial.solve_partial();
  full.solve_all();
  expect_identical();
  EXPECT_LT(partial.counters().flows_visited, full.counters().flows_visited);
}

INSTANTIATE_TEST_SUITE_P(RandomChurnSeeds, SlackChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------- core time-sharing across widths ------------------------------

class TimeShareProperty : public ::testing::TestWithParam<int> {};

TEST_P(TimeShareProperty, KEqualExecsFinishAtKTimesAlone) {
  const int k = GetParam();
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 1;
  spec.cores_per_node = 1;
  spec.core_speed = 1e9;
  platform::build_flat_cluster(p, spec);
  Engine eng(p);
  for (int i = 0; i < k; ++i) {
    eng.spawn("a" + std::to_string(i), 0, 0,
              [](Ctx& ctx) -> Coro { co_await ctx.execute(1e9); });
  }
  eng.run();
  EXPECT_NEAR(eng.now(), static_cast<double>(k), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, TimeShareProperty, ::testing::Values(1, 2, 3, 5, 8, 16, 31));

// ---------- communication timing across sizes ----------------------------

class CommSizeProperty : public ::testing::TestWithParam<double> {};

TEST_P(CommSizeProperty, TimeMatchesLatencyPlusBandwidthClosedForm) {
  const double bytes = GetParam();
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 2;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_flat_cluster(p, spec);
  Engine eng(p);
  eng.spawn("a", 0, 0, [bytes](Ctx& ctx) -> Coro {
    co_await ctx.wait(ctx.engine().make_comm(0, 1, bytes));
  });
  eng.run();
  EXPECT_NEAR(eng.now(), 2e-4 + bytes / 1e8, 1e-9 * std::max(1.0, bytes / 1e8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommSizeProperty,
                         ::testing::Values(1.0, 64.0, 1500.0, 65536.0, 1e6, 1e8));

}  // namespace
}  // namespace tir::sim
