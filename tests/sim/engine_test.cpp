// Core engine behaviour: execution timing, timers, core time-sharing,
// actor scheduling determinism, deadlock detection, exception propagation,
// and the activity handles (stale after completion, slots recycled).
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "platform/clusters.hpp"

namespace tir::sim {
namespace {

platform::Platform two_hosts() {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 2;
  spec.cores_per_node = 2;
  spec.core_speed = 1e9;  // 1 Ginstr/s
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_flat_cluster(p, spec);
  return p;
}

TEST(Engine, SingleExecTakesInstructionsOverRate) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro { co_await ctx.execute(2e9); });
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
}

TEST(Engine, ExecAtExplicitRateOverridesHostSpeed) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro { co_await ctx.execute_at(1e9, 5e8); });
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
}

TEST(Engine, SleepAdvancesTime) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    co_await ctx.sleep(1.5);
    co_await ctx.sleep(0.25);
  });
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 1.75);
}

TEST(Engine, ZeroWorkCompletesImmediately) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    co_await ctx.execute(0.0);
    co_await ctx.sleep(0.0);
  });
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
}

TEST(Engine, TwoExecsOnSameCoreTimeShare) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  std::vector<double> end_times(2);
  for (int i = 0; i < 2; ++i) {
    eng.spawn("a" + std::to_string(i), 0, 0, [i, &end_times](Ctx& ctx) -> Coro {
      co_await ctx.execute(1e9);
      end_times[static_cast<std::size_t>(i)] = ctx.now();
    });
  }
  eng.run();
  // Both share the 1e9 instr/s core: each sees 5e8/s, finishing at t=2.
  EXPECT_DOUBLE_EQ(end_times[0], 2.0);
  EXPECT_DOUBLE_EQ(end_times[1], 2.0);
}

TEST(Engine, ExecsOnDifferentCoresDoNotShare) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  std::vector<double> end_times(2);
  for (int i = 0; i < 2; ++i) {
    eng.spawn("a" + std::to_string(i), 0, i, [i, &end_times](Ctx& ctx) -> Coro {
      co_await ctx.execute(1e9);
      end_times[static_cast<std::size_t>(i)] = ctx.now();
    });
  }
  eng.run();
  EXPECT_DOUBLE_EQ(end_times[0], 1.0);
  EXPECT_DOUBLE_EQ(end_times[1], 1.0);
}

TEST(Engine, TimeSharingAdaptsWhenOneExecFinishes) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  double short_end = 0.0;
  double long_end = 0.0;
  eng.spawn("short", 0, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.execute(1e9);
    short_end = ctx.now();
  });
  eng.spawn("long", 0, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.execute(3e9);
    long_end = ctx.now();
  });
  eng.run();
  // Shared until t=2 (each does 1e9); then long runs alone for 2e9 -> t=4.
  EXPECT_DOUBLE_EQ(short_end, 2.0);
  EXPECT_DOUBLE_EQ(long_end, 4.0);
}

TEST(Engine, NestedCoroutinesComposeSequentially) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  auto phase = [](Ctx& ctx, double instr) -> Coro { co_await ctx.execute(instr); };
  eng.spawn("a", 0, 0, [&phase](Ctx& ctx) -> Coro {
    co_await phase(ctx, 1e9);
    co_await phase(ctx, 1e9);
  });
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
}

TEST(Engine, ActorExceptionPropagatesFromRun) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    co_await ctx.sleep(1.0);
    throw Error("boom");
  });
  EXPECT_THROW(eng.run(), Error);
}

TEST(Engine, NestedCoroutineExceptionPropagates) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  auto failing = [](Ctx& ctx) -> Coro {
    co_await ctx.sleep(0.5);
    throw Error("inner");
  };
  bool caught = false;
  eng.spawn("a", 0, 0, [&](Ctx& ctx) -> Coro {
    try {
      co_await failing(ctx);
    } catch (const Error&) {
      caught = true;
    }
    co_await ctx.sleep(0.5);
  });
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
}

TEST(Engine, GateBlocksUntilCompleted) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  ActivityPtr gate;
  double waiter_end = -1.0;
  eng.spawn("waiter", 0, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.wait(gate);
    waiter_end = ctx.now();
  });
  eng.spawn("opener", 1, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.sleep(3.0);
    ctx.engine().complete_now(gate);
  });
  gate = eng.make_gate();
  eng.run();
  EXPECT_DOUBLE_EQ(waiter_end, 3.0);
}

TEST(Engine, DeadlockOnForeverBlockedActorThrows) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  ActivityPtr gate;
  eng.spawn("stuck", 0, 0, [&](Ctx& ctx) -> Coro { co_await ctx.wait(gate); });
  gate = eng.make_gate();
  EXPECT_THROW(eng.run(), SimError);
}

TEST(Engine, ManyActorsDeterministicCompletion) {
  const platform::Platform p = two_hosts();
  auto run_once = [&]() {
    Engine eng(p);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      eng.spawn("a" + std::to_string(i), i % 2, (i / 2) % 2, [i, &order](Ctx& ctx) -> Coro {
        co_await ctx.sleep(0.001 * ((i * 7) % 5 + 1));
        order.push_back(i);
      });
    }
    eng.run();
    return order;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 16u);
}

TEST(Engine, MixedWorkloadDeterministicUnderContention) {
  // Stress determinism: execs, timers, contended comms and gates mixed.
  auto run_once = [] {
    platform::Platform p;
    platform::ClusterSpec spec;
    spec.prefix = "h";
    spec.nodes = 8;
    spec.cores_per_node = 2;
    spec.link_bandwidth = 1e8;
    spec.link_latency = 1e-5;
    platform::build_flat_cluster(p, spec);
    Engine eng(p, EngineConfig{Sharing::MaxMin});
    for (int i = 0; i < 8; ++i) {
      eng.spawn("a" + std::to_string(i), i, 0, [i](Ctx& ctx) -> Coro {
        for (int round = 0; round < 5; ++round) {
          co_await ctx.execute(1e6 * (1 + (i * 7 + round) % 4));
          co_await ctx.wait(ctx.engine().make_comm(i, (i + 1 + round) % 8, 5e5));
          co_await ctx.sleep(1e-4 * ((i + round) % 3));
        }
      });
    }
    eng.run();
    return eng.now();
  };
  const double first = run_once();
  EXPECT_DOUBLE_EQ(first, run_once());
  EXPECT_GT(first, 0.0);
}

TEST(EngineHandles, RecycledSlotReadsDoneAndItsNewOccupantIsUnaffected) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  const ActivityPtr stale = eng.make_gate();
  EXPECT_FALSE(stale.done());
  eng.complete_now(stale);
  EXPECT_TRUE(stale.done());

  const ActivityPtr occupant = eng.make_gate();
  ASSERT_EQ(occupant.get(), stale.get()) << "completion recycles the slot";
  EXPECT_TRUE(stale.done());
  EXPECT_FALSE(occupant.done());

  bool waited = false;
  eng.spawn("a", 0, 0, [&](Ctx& ctx) -> Coro {
    EXPECT_TRUE(ctx.wait(stale).await_ready()) << "a stale wait must not suspend";
    co_await ctx.wait(stale);
    waited = true;
  });
  eng.run();
  EXPECT_TRUE(waited);
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);

  // chain(stale, gate) completes the gate at once.
  const ActivityPtr gate = eng.make_gate();
  eng.chain(stale, gate);
  EXPECT_TRUE(gate.done());

  // Neither the stale wait nor the stale chain touched the new occupant.
  EXPECT_FALSE(occupant.done());
  EXPECT_TRUE(occupant.get()->waiters.empty());
  EXPECT_EQ(occupant.get()->state, Activity::State::Pending);
  eng.complete_now(occupant);
  EXPECT_TRUE(occupant.done());
}

TEST(EngineHandles, DefaultHandleReadsDone) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  const ActivityPtr none;
  EXPECT_TRUE(none.done());
  EXPECT_TRUE(none == nullptr);
  bool waited = false;
  eng.spawn("a", 0, 0, [&](Ctx& ctx) -> Coro {
    co_await ctx.wait(none);
    waited = true;
  });
  eng.run();
  EXPECT_TRUE(waited);
  const ActivityPtr gate = eng.make_gate();
  eng.chain(none, gate);
  EXPECT_TRUE(gate.done());
}

TEST(EngineHandles, SequentialActivitiesReuseOneSlot) {
  // One live activity at a time: exec, comm and done-at-birth exec, 10,000
  // rounds.  Completion recycles the slot, so one slot serves them all and
  // nothing accumulates until the engine goes away.
  const platform::Platform p = two_hosts();
  Engine eng(p);
  constexpr int kRounds = 10000;
  eng.spawn("a", 0, 0, [](Ctx& ctx) -> Coro {
    for (int i = 0; i < kRounds; ++i) {
      co_await ctx.execute(1e3);
      co_await ctx.wait(ctx.engine().make_comm(0, 1, 1e3));
      co_await ctx.execute(0.0);
    }
  });
  eng.run();
  EXPECT_EQ(eng.activities_created(), 3u * kRounds);
  EXPECT_EQ(eng.fresh_activity_allocations(), 1u);
}

TEST(Engine, SpawnRequiresValidCore) {
  const platform::Platform p = two_hosts();
  Engine eng(p);
  EXPECT_THROW(eng.spawn("bad", 0, 7, [](Ctx& ctx) -> Coro { co_await ctx.sleep(0); }),
               InternalError);
}

}  // namespace
}  // namespace tir::sim
