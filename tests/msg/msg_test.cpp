// MSG-layer semantics: the transfer starts at MATCH time (never before),
// which is what made the old replay back-end overestimate eager traffic.
#include "msg/msg.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "platform/clusters.hpp"

namespace tir::msg {
namespace {

platform::Platform quad() {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = 4;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1e8;
  spec.link_latency = 1e-4;
  platform::build_flat_cluster(p, spec);
  return p;
}

constexpr double kNetTime = 2e-4 + 1e-2;  // two hops + 1e6 B at 1e8 B/s

/// Blocking send: queue the task, then wait for its match-started transfer.
sim::Coro send(sim::Ctx& ctx, Mailboxes& mb, BoxId box, double bytes) {
  co_await ctx.wait(mb.isend(ctx, box, bytes));
}

/// Blocking receive, as the old replay back-end does it: match the oldest
/// queued task or post a slot and wait for the match, then wait for the
/// transfer.
sim::Coro recv(sim::Ctx& ctx, Mailboxes& mb, BoxId box) {
  RecvSlot slot;
  Request r = mb.match_or_post(ctx, box, slot);
  if (r == nullptr) {
    co_await ctx.wait(slot.matched);
    r = std::move(slot.comm);
  }
  co_await ctx.wait(std::move(r));
}

/// Records every match (mailbox, task bytes) in match order.
struct MatchLog : obs::Sink {
  std::vector<std::pair<std::string, double>> matches;
  void on_mailbox_match(std::string_view mailbox, double bytes) override {
    matches.emplace_back(std::string(mailbox), bytes);
  }
};

sim::EngineConfig logged(MatchLog& log) {
  sim::EngineConfig cfg;
  cfg.sink = &log;
  return cfg;
}

TEST(Msg, SendThenRecvTransfersAfterMatch) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Mailboxes mb(eng);
  const BoxId box = mb.box("0_1");
  double recv_end = 0.0;
  eng.spawn("sender", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await send(ctx, mb, box, 1e6);
  });
  eng.spawn("receiver", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);  // receiver arrives late
    co_await recv(ctx, mb, box);
    recv_end = ctx.now();
  });
  eng.run();
  // MSG semantics: although the send was posted at t=0, the transfer only
  // starts when the receiver matches at t=1.
  EXPECT_NEAR(recv_end, 1.0 + kNetTime, 1e-9);
}

TEST(Msg, BlockingSendWaitsForTransfer) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Mailboxes mb(eng);
  const BoxId box = mb.box("m");
  double send_end = 0.0;
  eng.spawn("sender", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await send(ctx, mb, box, 1e6);
    send_end = ctx.now();
  });
  eng.spawn("receiver", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.5);
    co_await recv(ctx, mb, box);
  });
  eng.run();
  EXPECT_NEAR(send_end, 0.5 + kNetTime, 1e-9);
}

TEST(Msg, IsendReturnsImmediatelyButTransferStillStartsAtMatch) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Mailboxes mb(eng);
  const BoxId box = mb.box("m");
  double after_isend = -1.0;
  double recv_end = 0.0;
  eng.spawn("sender", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    mb.send_async(ctx, box, 1e6);
    after_isend = ctx.now();
    co_return;
  });
  eng.spawn("receiver", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(2.0);
    co_await recv(ctx, mb, box);
    recv_end = ctx.now();
  });
  eng.run();
  EXPECT_DOUBLE_EQ(after_isend, 0.0);
  EXPECT_NEAR(recv_end, 2.0 + kNetTime, 1e-9);
}

TEST(Msg, IsendRequestCompletesWithTransfer) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Mailboxes mb(eng);
  const BoxId box = mb.box("m");
  double wait_end = 0.0;
  eng.spawn("sender", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    const Request r = mb.isend(ctx, box, 1e6);
    co_await ctx.wait(r);
    wait_end = ctx.now();
  });
  eng.spawn("receiver", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);
    co_await recv(ctx, mb, box);
  });
  eng.run();
  EXPECT_NEAR(wait_end, 1.0 + kNetTime, 1e-9);
}

TEST(Msg, RecvBeforeSendBlocksUntilMatched) {
  const platform::Platform p = quad();
  MatchLog log;
  sim::Engine eng(p, logged(log));
  Mailboxes mb(eng);
  const BoxId box = mb.box("m");
  double recv_end = 0.0;
  eng.spawn("receiver", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await recv(ctx, mb, box);
    recv_end = ctx.now();
  });
  eng.spawn("sender", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(3.0);
    co_await send(ctx, mb, box, 4096);
  });
  eng.run();
  EXPECT_NEAR(recv_end, 3.0 + 2e-4 + 4096.0 / 1e8, 1e-9);
  ASSERT_EQ(log.matches.size(), 1u);
  EXPECT_DOUBLE_EQ(log.matches[0].second, 4096.0);
}

TEST(Msg, TasksMatchInFifoOrder) {
  const platform::Platform p = quad();
  MatchLog log;
  sim::Engine eng(p, logged(log));
  Mailboxes mb(eng);
  const BoxId box = mb.box("m");
  eng.spawn("sender", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    mb.isend(ctx, box, 100);
    mb.send_async(ctx, box, 200);
    mb.isend(ctx, box, 300);
    co_return;
  });
  eng.spawn("receiver", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    for (int i = 0; i < 3; ++i) co_await recv(ctx, mb, box);
  });
  eng.run();
  std::vector<double> sizes;
  for (const auto& m : log.matches) sizes.push_back(m.second);
  EXPECT_EQ(sizes, (std::vector<double>{100, 200, 300}));
}

TEST(Msg, BacklogCountsUnmatchedTasks) {
  // Two unmatched tasks queue up: the first two receives match at once,
  // the third has to post a slot.
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Mailboxes mb(eng);
  const BoxId box = mb.box("m");
  std::vector<bool> matched_at_once;
  eng.spawn("sender", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    mb.isend(ctx, box, 100);
    mb.send_async(ctx, box, 100);
    co_await ctx.sleep(1.0);
    mb.send_async(ctx, box, 100);  // matches the posted slot
  });
  eng.spawn("receiver", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    RecvSlot slots[3];
    for (RecvSlot& slot : slots) {
      matched_at_once.push_back(mb.match_or_post(ctx, box, slot) != nullptr);
    }
    co_await ctx.wait(slots[2].matched);
  });
  eng.run();
  EXPECT_EQ(matched_at_once, (std::vector<bool>{true, true, false}));
}

TEST(Msg, DistinctMailboxesDoNotInterfere) {
  const platform::Platform p = quad();
  MatchLog log;
  sim::Engine eng(p, logged(log));
  Mailboxes mb(eng);
  const BoxId from0 = mb.box("0_2");
  const BoxId from1 = mb.box("1_2");
  eng.spawn("s0", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await send(ctx, mb, from0, 111);
  });
  eng.spawn("s1", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await send(ctx, mb, from1, 222);
  });
  eng.spawn("r", 2, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await recv(ctx, mb, from1);
    co_await recv(ctx, mb, from0);
  });
  eng.run();
  using Match = std::pair<std::string, double>;
  EXPECT_EQ(log.matches, (std::vector<Match>{{"1_2", 222.0}, {"0_2", 111.0}}));
}

TEST(Msg, RendezvousReleasesAllParties) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Rendezvous rdv(eng, 3);
  std::vector<double> release_times;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("a" + std::to_string(i), i, 0, [&, i](sim::Ctx& ctx) -> sim::Coro {
      co_await ctx.sleep(static_cast<double>(i));
      co_await rdv.arrive_and_wait(ctx);
      release_times.push_back(ctx.now());
    });
  }
  eng.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (const double t : release_times) EXPECT_DOUBLE_EQ(t, 2.0);  // last arrival
}

TEST(Msg, RendezvousIsReusable) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Rendezvous rdv(eng, 2);
  double second_round = 0.0;
  for (int i = 0; i < 2; ++i) {
    eng.spawn("a" + std::to_string(i), i, 0, [&, i](sim::Ctx& ctx) -> sim::Coro {
      co_await rdv.arrive_and_wait(ctx);
      co_await ctx.sleep(i == 0 ? 1.0 : 2.0);
      co_await rdv.arrive_and_wait(ctx);
      second_round = ctx.now();
    });
  }
  eng.run();
  EXPECT_DOUBLE_EQ(second_round, 2.0);
}

}  // namespace
}  // namespace tir::msg
