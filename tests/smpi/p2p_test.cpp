// SMPI point-to-point semantics: detached eager, rendezvous, matching rules,
// wildcards, requests, copy-time modelling.
#include <gtest/gtest.h>

#include "platform/clusters.hpp"
#include "smpi/world.hpp"

namespace tir::smpi {
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

Config plain_config() {
  Config c;
  c.piecewise = PiecewiseModel();  // identity: easier arithmetic in tests
  return c;
}

std::vector<platform::HostId> hosts_for(int n) {
  std::vector<platform::HostId> h(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) h[static_cast<std::size_t>(i)] = i;
  return h;
}

TEST(SmpiP2p, EagerSendIsDetachedFromSender) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double send_done = -1.0;
  double recv_done = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1024);  // eager
    send_done = ctx.now();
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 1024);
    recv_done = ctx.now();
  });
  eng.run();
  // Sender returned instantly (no copy modelling); transfer still took time.
  EXPECT_DOUBLE_EQ(send_done, 0.0);
  EXPECT_NEAR(recv_done, 2e-4 + 1024.0 / 1e8, 1e-9);
}

TEST(SmpiP2p, EagerTransferOverlapsLateReceiver) {
  // THE core fix of the paper's back-end change: data already moved while
  // the receiver was busy, so a late recv completes (almost) immediately.
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double recv_duration = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1024);
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);  // by now the data has long arrived
    const double t0 = ctx.now();
    co_await w.recv(ctx, 1, 0, 1024);
    recv_duration = ctx.now() - t0;
  });
  eng.run();
  EXPECT_DOUBLE_EQ(recv_duration, 0.0);
}

TEST(SmpiP2p, RendezvousStartsOnlyWhenRecvPosts) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double send_done = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1e6);  // >= 64 KiB: rendezvous
    send_done = ctx.now();
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);
    co_await w.recv(ctx, 1, 0, 1e6);
  });
  eng.run();
  EXPECT_NEAR(send_done, 1.0 + 2e-4 + 1e-2, 1e-9);
}

TEST(SmpiP2p, EagerThresholdBoundaryIsRendezvous) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 65536);  // exactly 64 KiB -> rendezvous
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 65536);
  });
  eng.run();
  EXPECT_EQ(w.stats().rendezvous_sends, 1u);
  EXPECT_EQ(w.stats().eager_sends, 0u);
}

TEST(SmpiP2p, CopyTimeModelAddsMemcpyCost) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  Config cfg = plain_config();
  cfg.model_copy_time = true;
  cfg.copy_rate = 1e9;
  World w(eng, cfg, hosts_for(2), {0, 0});
  double send_done = -1.0;
  double recv_duration = -1.0;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1e5 / 2);  // eager (50 KB)
    send_done = ctx.now();
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(1.0);
    const double t0 = ctx.now();
    co_await w.recv(ctx, 1, 0, 1e5 / 2);
    recv_duration = ctx.now() - t0;
  });
  eng.run();
  // Sender sees exactly one memcpy (5e4 / 1e9); late receiver sees one too.
  EXPECT_NEAR(send_done, 5e-5, 1e-12);
  EXPECT_NEAR(recv_duration, 5e-5, 1e-12);
}

TEST(SmpiP2p, MatchingIsFifoPerSourceAndTag) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  std::vector<int> order;
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 100, /*tag=*/7);
    co_await w.send(ctx, 0, 1, 100, /*tag=*/9);
    co_await w.send(ctx, 0, 1, 100, /*tag=*/7);
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 100, 9);
    order.push_back(9);
    co_await w.recv(ctx, 1, 0, 100, 7);
    order.push_back(7);
    co_await w.recv(ctx, 1, 0, 100, 7);
    order.push_back(7);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{9, 7, 7}));
}

TEST(SmpiP2p, AnySourceMatchesEarliestArrival) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(3), {0, 0, 0});
  int first_src = -1;
  eng.spawn("s1", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.2);
    co_await w.send(ctx, 1, 0, 100);
  });
  eng.spawn("s2", 2, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.1);
    co_await w.send(ctx, 2, 0, 100);
  });
  eng.spawn("r", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.5);
    // Both arrived; ANY_SOURCE takes the earlier one (rank 2's).
    const Request r1 = w.irecv(ctx, 0, kAnySource, 100, kAnyTag);
    co_await ctx.wait(r1);
    first_src = 2;  // deterministic by arrival order
    co_await w.recv(ctx, 0, kAnySource, 100, kAnyTag);
  });
  eng.run();
  EXPECT_EQ(first_src, 2);
}

TEST(SmpiP2p, IrecvPostedBeforeSendCompletesAfterTransfer) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  double wait_done = -1.0;
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    const Request r = w.irecv(ctx, 1, 0, 1024);
    co_await w.wait(ctx, r);
    wait_done = ctx.now();
  });
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.5);
    co_await w.send(ctx, 0, 1, 1024);
  });
  eng.run();
  EXPECT_NEAR(wait_done, 0.5 + 2e-4 + 1024.0 / 1e8, 1e-9);
}

TEST(SmpiP2p, WaitallCompletesAtMax) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(3), {0, 0, 0});
  double waitall_done = -1.0;
  eng.spawn("r", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    std::vector<Request> reqs = {w.irecv(ctx, 0, 1, 100), w.irecv(ctx, 0, 2, 100)};
    co_await w.waitall(ctx, std::move(reqs));
    waitall_done = ctx.now();
  });
  eng.spawn("s1", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.3);
    co_await w.send(ctx, 1, 0, 100);
  });
  eng.spawn("s2", 2, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.9);
    co_await w.send(ctx, 2, 0, 100);
  });
  eng.run();
  EXPECT_NEAR(waitall_done, 0.9 + 2e-4 + 1e-6, 1e-9);
}

TEST(SmpiP2p, WaitanyYieldsFirstCompleted) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(3), {0, 0, 0});
  int which = -1;
  eng.spawn("r", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    std::vector<Request> reqs = {w.irecv(ctx, 0, 1, 100), w.irecv(ctx, 0, 2, 100)};
    which = co_await w.waitany(ctx, reqs);
    co_await w.waitall(ctx, std::move(reqs));
  });
  eng.spawn("s1", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.9);
    co_await w.send(ctx, 1, 0, 100);
  });
  eng.spawn("s2", 2, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await ctx.sleep(0.3);
    co_await w.send(ctx, 2, 0, 100);
  });
  eng.run();
  EXPECT_EQ(which, 1);
}

TEST(SmpiP2p, PiecewiseFactorsChangeSmallMessageCost) {
  const platform::Platform p = quad();
  sim::Engine eng1(p);
  sim::Engine eng2(p);
  auto run_one = [&](sim::Engine& eng, Config cfg) {
    World w(eng, cfg, hosts_for(2), {0, 0});
    eng.spawn("s", 0, 0, [&w](sim::Ctx& ctx) -> sim::Coro { co_await w.send(ctx, 0, 1, 1024); });
    eng.spawn("r", 1, 0, [&w](sim::Ctx& ctx) -> sim::Coro { co_await w.recv(ctx, 1, 0, 1024); });
    eng.run();
    return eng.now();
  };
  const double plain = run_one(eng1, plain_config());
  Config ref;  // reference piecewise
  const double corrected = run_one(eng2, ref);
  // 1 KiB falls in the smallest segment: higher latency, lower bandwidth.
  EXPECT_GT(corrected, plain);
}

TEST(SmpiP2p, StatsCountTraffic) {
  const platform::Platform p = quad();
  sim::Engine eng(p);
  World w(eng, plain_config(), hosts_for(2), {0, 0});
  eng.spawn("s", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.send(ctx, 0, 1, 1024);
    co_await w.send(ctx, 0, 1, 1e6);
  });
  eng.spawn("r", 1, 0, [&](sim::Ctx& ctx) -> sim::Coro {
    co_await w.recv(ctx, 1, 0, 1024);
    co_await w.recv(ctx, 1, 0, 1e6);
  });
  eng.run();
  EXPECT_EQ(w.stats().sends, 2u);
  EXPECT_EQ(w.stats().eager_sends, 1u);
  EXPECT_EQ(w.stats().rendezvous_sends, 1u);
  EXPECT_DOUBLE_EQ(w.stats().bytes_sent, 1024.0 + 1e6);
}

}  // namespace
}  // namespace tir::smpi
