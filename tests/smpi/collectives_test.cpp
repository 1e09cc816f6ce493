// Collective algorithms: completion, synchronization semantics, scaling
// shape (log vs linear rounds), and deadlock freedom at rendezvous sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "platform/clusters.hpp"
#include "smpi/world.hpp"

namespace tir::smpi {
namespace {

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

Config plain_config() {
  Config c;
  c.piecewise = PiecewiseModel();
  return c;
}

struct CollectiveRun {
  double makespan = 0.0;
  std::vector<double> rank_end;
};

/// Run `op` on all ranks, with rank-dependent skew before the collective.
template <typename Op>
CollectiveRun run_collective(int n, Op op, double skew = 0.0) {
  const platform::Platform p = cluster(n);
  sim::Engine eng(p);
  World w(eng, plain_config(), platform::place_ranks(p, n), std::vector<int>(n, 0));
  CollectiveRun result;
  result.rank_end.resize(static_cast<std::size_t>(n));
  w.spawn_ranks([&, skew](sim::Ctx& ctx, int me) -> sim::Coro {
    if (skew > 0.0) co_await ctx.sleep(skew * me);
    co_await op(w, ctx, me);
    result.rank_end[static_cast<std::size_t>(me)] = ctx.now();
  });
  eng.run();
  result.makespan = eng.now();
  return result;
}

TEST(SmpiCollectives, BarrierHoldsEveryoneUntilLastArrival) {
  const auto r = run_collective(
      8, [](World& w, sim::Ctx& ctx, int me) { return w.barrier(ctx, me); }, /*skew=*/0.1);
  // Rank 7 arrives at t=0.7; nobody may leave before that.
  for (const double t : r.rank_end) EXPECT_GE(t, 0.7);
  // And the barrier itself is fast (log2(8)=3 rounds of tiny messages).
  for (const double t : r.rank_end) EXPECT_LT(t, 0.71);
}

TEST(SmpiCollectives, BarrierScalesLogarithmically) {
  const auto t4 = run_collective(4, [](World& w, sim::Ctx& ctx, int me) {
                    return w.barrier(ctx, me);
                  }).makespan;
  const auto t16 = run_collective(16, [](World& w, sim::Ctx& ctx, int me) {
                     return w.barrier(ctx, me);
                   }).makespan;
  const auto t64 = run_collective(64, [](World& w, sim::Ctx& ctx, int me) {
                     return w.barrier(ctx, me);
                   }).makespan;
  // Dissemination: rounds = log2(n); doubling rounds ~doubles time.
  EXPECT_NEAR(t16 / t4, 2.0, 0.5);
  EXPECT_NEAR(t64 / t16, 1.5, 0.5);
}

TEST(SmpiCollectives, BcastReachesAllRanksRootFirst) {
  const auto r = run_collective(8, [](World& w, sim::Ctx& ctx, int me) {
    return w.bcast(ctx, me, 4096, /*root=*/0);
  });
  EXPECT_GT(r.makespan, 0.0);
  // The root finishes no later than the farthest leaf.
  EXPECT_LE(r.rank_end[0], r.makespan);
}

TEST(SmpiCollectives, BcastWithNonZeroRoot) {
  const auto r = run_collective(6, [](World& w, sim::Ctx& ctx, int me) {
    return w.bcast(ctx, me, 4096, /*root=*/3);
  });
  EXPECT_GT(r.makespan, 0.0);
  // Root 3 sends before anyone else can finish.
  EXPECT_LE(r.rank_end[3], r.makespan);
}

TEST(SmpiCollectives, BcastBinomialBeatsLinearScaling) {
  auto bcast_op = [](World& w, sim::Ctx& ctx, int me) { return w.bcast(ctx, me, 1024, 0); };
  const double t8 = run_collective(8, bcast_op).makespan;
  const double t64 = run_collective(64, bcast_op).makespan;
  // Binomial: 3 rounds vs 6 rounds -> factor ~2, nowhere near the 8x of a
  // linear root-sends-to-all broadcast.
  EXPECT_LT(t64 / t8, 3.0);
}

TEST(SmpiCollectives, ReduceAppliesMergeCompute) {
  auto with_compute = run_collective(8, [](World& w, sim::Ctx& ctx, int me) {
    return w.reduce(ctx, me, 1024, /*compute=*/1e8, 0);
  });
  auto without = run_collective(8, [](World& w, sim::Ctx& ctx, int me) {
    return w.reduce(ctx, me, 1024, /*compute=*/0.0, 0);
  });
  // Root merges log2(8)=3 partial results at 1e9 instr/s -> >= 0.3 s extra.
  EXPECT_GT(with_compute.makespan, without.makespan + 0.29);
}

TEST(SmpiCollectives, AllreduceLeavesAllRanksSynchronized) {
  const auto r = run_collective(
      16,
      [](World& w, sim::Ctx& ctx, int me) { return w.allreduce(ctx, me, 8, 100); },
      /*skew=*/0.05);
  // Allreduce is a full synchronization: nobody finishes before the last
  // arrival (rank 15 at 0.75).
  for (const double t : r.rank_end) EXPECT_GE(t, 0.75);
}

TEST(SmpiCollectives, AllgatherRingCompletes) {
  const auto r = run_collective(8, [](World& w, sim::Ctx& ctx, int me) {
    return w.allgather(ctx, me, 2048);
  });
  EXPECT_GT(r.makespan, 0.0);
  // Ring: n-1 = 7 steps, each >= one hop latency pair (1e-4).
  EXPECT_GE(r.makespan, 7 * 1e-4);
}

TEST(SmpiCollectives, AlltoallCompletesAndScalesLinearly) {
  auto op = [](World& w, sim::Ctx& ctx, int me) { return w.alltoall(ctx, me, 1024); };
  const double t4 = run_collective(4, op).makespan;
  const double t16 = run_collective(16, op).makespan;
  EXPECT_GT(t16 / t4, 3.0);  // (n-1) steps: 15/3 = 5x ideally
}

TEST(SmpiCollectives, GatherAndScatterComplete) {
  const auto g = run_collective(8, [](World& w, sim::Ctx& ctx, int me) {
    return w.gather(ctx, me, 4096, /*root=*/2);
  });
  EXPECT_GT(g.makespan, 0.0);
  const auto s = run_collective(8, [](World& w, sim::Ctx& ctx, int me) {
    return w.scatter(ctx, me, 4096, /*root=*/5);
  });
  EXPECT_GT(s.makespan, 0.0);
}

TEST(SmpiCollectives, RendezvousSizedCollectivesDoNotDeadlock) {
  // Every payload above the 64 KiB eager threshold: exercises the
  // nonblocking plumbing inside ring/pairwise algorithms.
  const double big = 1e5;
  EXPECT_NO_THROW(run_collective(8, [&](World& w, sim::Ctx& ctx, int me) {
    return w.allgather(ctx, me, big);
  }));
  EXPECT_NO_THROW(run_collective(8, [&](World& w, sim::Ctx& ctx, int me) {
    return w.alltoall(ctx, me, big);
  }));
  EXPECT_NO_THROW(run_collective(8, [&](World& w, sim::Ctx& ctx, int me) {
    return w.allreduce(ctx, me, big, 0.0);
  }));
  EXPECT_NO_THROW(run_collective(8, [&](World& w, sim::Ctx& ctx, int me) {
    return w.bcast(ctx, me, big, 0);
  }));
}

TEST(SmpiCollectives, NonPowerOfTwoSizesWork) {
  for (const int n : {3, 5, 6, 7, 12}) {
    EXPECT_NO_THROW(run_collective(n, [](World& w, sim::Ctx& ctx, int me) {
      return w.allreduce(ctx, me, 64, 10);
    })) << "n=" << n;
    EXPECT_NO_THROW(run_collective(n, [](World& w, sim::Ctx& ctx, int me) {
      return w.barrier(ctx, me);
    })) << "n=" << n;
  }
}

TEST(SmpiCollectives, SingleRankCollectivesAreInstant) {
  const auto r = run_collective(1, [](World& w, sim::Ctx& ctx, int me) -> sim::Coro {
    co_await w.barrier(ctx, me);
    co_await w.bcast(ctx, me, 1024, 0);
    co_await w.allreduce(ctx, me, 8, 0);
    co_await w.allgather(ctx, me, 1024);
    co_await w.alltoall(ctx, me, 1024);
  });
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

// --- allreduce + bcast, and binomial against a linear broadcast -------------

/// Allreduce then bcast (root 0) on every rank, with rank-dependent skew.
CollectiveRun run_allreduce_bcast(int n, double bytes, double skew) {
  return run_collective(
      n,
      [bytes](World& w, sim::Ctx& ctx, int me) -> sim::Coro {
        co_await w.allreduce(ctx, me, bytes, 0.0);
        co_await w.bcast(ctx, me, bytes, 0);
      },
      skew);
}

TEST(SmpiCollectiveAlgos, AllVariantsSynchronize) {
  const auto r = run_allreduce_bcast(8, 4096, 0.05);
  for (const double t : r.rank_end) {
    EXPECT_GE(t, 0.35) << "allreduce must not release before the last arrival";
  }
}

TEST(SmpiCollectiveAlgos, VariantsWorkOnNonPowersOfTwo) {
  for (const int n : {3, 6, 12}) {
    EXPECT_NO_THROW(run_allreduce_bcast(n, 1024, 0.0)) << n;
    EXPECT_NO_THROW(run_collective(n, [n](World& w, sim::Ctx& ctx, int me) {
      return w.bcast(ctx, me, 1024, n - 1);
    })) << n;
  }
}

TEST(SmpiCollectiveAlgos, BinomialBcastBeatsLinearAtScale) {
  // Use a rendezvous-sized payload so a linear root's sends serialize.
  constexpr int n = 32;
  constexpr double bytes = 1e6;
  const double t_binomial =
      run_collective(n, [](World& w, sim::Ctx& ctx, int me) {
        return w.bcast(ctx, me, bytes, 0);
      }).makespan;
  const double t_linear =
      run_collective(n, [](World& w, sim::Ctx& ctx, int me) -> sim::Coro {
        if (me == 0) {
          for (int r = 1; r < n; ++r) co_await w.send(ctx, 0, r, bytes);
        } else {
          co_await w.recv(ctx, me, 0, bytes);
        }
      }).makespan;
  EXPECT_LT(t_binomial, t_linear * 0.5);
}

TEST(SmpiCollectives, CollectiveTrafficDoesNotDisturbPointToPoint) {
  // A rank pair exchanging user messages around a barrier must not have its
  // messages stolen by collective-internal traffic.
  const platform::Platform p = cluster(4);
  sim::Engine eng(p);
  World w(eng, plain_config(), platform::place_ranks(p, 4), std::vector<int>(4, 0));
  double got = 0.0;
  w.spawn_ranks([&](sim::Ctx& ctx, int me) -> sim::Coro {
    if (me == 0) {
      co_await w.send(ctx, 0, 1, 777, /*tag=*/5);
      co_await w.barrier(ctx, 0);
    } else if (me == 1) {
      co_await w.barrier(ctx, 1);
      co_await w.recv(ctx, 1, 0, 777, /*tag=*/5);
      got = 777;
    } else {
      co_await w.barrier(ctx, me);
    }
  });
  eng.run();
  EXPECT_DOUBLE_EQ(got, 777.0);
}

}  // namespace
}  // namespace tir::smpi
