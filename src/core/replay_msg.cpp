// The old replay engine: the paper's first prototype, reproduced as the
// experimental baseline.  Its three known sins (paper §2.4, §3.3):
//
//   1. `send` of a sub-64 KiB message maps to a fire-and-forget isend into
//      mailbox "<src>_<dst>", but MSG semantics start the transfer only
//      when the receiver matches - so the receiver pays full latency +
//      transfer time on its own critical path for every small message,
//      which real eager mode overlaps.  The per-message inaccuracy
//      accumulates linearly with the number of messages, hence with the
//      process count (Figure 3's linear error growth).
//   2. No piecewise-linear protocol corrections: raw link parameters.
//   3. Collectives are monolithic analytic delays (synchronize, then sleep
//      a closed-form estimate) instead of point-to-point algorithms.
#include <algorithm>
#include <cmath>

#include "core/session.hpp"
#include "msg/msg.hpp"

namespace tir::core {

namespace {

/// 64 KiB, as hard-coded in the paper's old action_send.
constexpr double kSmallMessage = 65536.0;

/// Closed-form collective estimates of the old back-end: log2(n) stages of
/// (latency + volume/bandwidth) for tree-shaped operations, (n-1) stages
/// for all-to-all style ones.
struct MonolithicModel {
  double latency = 0.0;    ///< end-to-end latency between two hosts
  double bandwidth = 0.0;  ///< bottleneck bandwidth of one path

  double stage(double bytes) const { return latency + bytes / bandwidth; }
  double tree(int n, double bytes) const {
    return std::ceil(std::log2(std::max(n, 2))) * stage(bytes);
  }
};

struct OldReplayShared {
  msg::Mailboxes mailboxes;
  /// All collectives reuse one global rendezvous (ranks hit collectives in
  /// the same order, as MPI requires).
  msg::Rendezvous sync;
  MonolithicModel model;
  int nprocs;

  OldReplayShared(sim::Engine& engine, int n) : mailboxes(engine), sync(engine, n), nprocs(n) {}
};

/// Synchronize everyone, then charge the analytic collective delay.
sim::Coro monolithic(sim::Ctx& ctx, OldReplayShared& shared, double delay) {
  co_await shared.sync.arrive_and_wait(ctx);
  if (delay > 0.0) co_await ctx.sleep(delay);
}

sim::Coro replay_rank_msg(sim::Ctx& ctx, int me, ReplaySession& session,
                          OldReplayShared& shared) {
  RankShell shell(ctx, me, session, Backend::Msg);
  const int n = shared.nprocs;
  // Mailbox handles resolved once per peer: the hot loop then never builds
  // a "<src>_<dst>" name or hashes it.
  std::vector<msg::BoxId> to_peer(static_cast<std::size_t>(n), -1);
  std::vector<msg::BoxId> from_peer(static_cast<std::size_t>(n), -1);
  const auto out_box = [&](int dst) {
    msg::BoxId& id = to_peer[static_cast<std::size_t>(dst)];
    if (id < 0) id = shared.mailboxes.box(mailbox_name(me, dst));
    return id;
  };
  const auto in_box = [&](int src) {
    msg::BoxId& id = from_peer[static_cast<std::size_t>(src)];
    if (id < 0) id = shared.mailboxes.box(mailbox_name(src, me));
    return id;
  };
  obs::Sink* const sink = session.config().sink;  // hoisted: one load per rank
  if (shell.resume_sleep() > 0.0) co_await ctx.sleep(shell.resume_sleep());
  while (shell.next()) {
    const tit::Action& a = shell.action();
    if (sink != nullptr &&
        (a.type == tit::ActionType::Send || a.type == tit::ActionType::Isend)) {
      // The MSG layer has no protocol split; classify by the old back-end's
      // own 64 KiB async/blocking threshold.
      sink->on_message(me, a.partner, a.volume, a.volume < kSmallMessage, false);
    }
    switch (a.type) {
      case tit::ActionType::Init:
      case tit::ActionType::Finalize:
        break;
      case tit::ActionType::Compute:
        co_await ctx.execute_at(a.volume, shell.rate());
        break;
      case tit::ActionType::Send:
        // The paper's old action_send: async below 64 KiB, blocking above.
        if (a.volume < kSmallMessage) {
          shared.mailboxes.send_async(ctx, out_box(a.partner), a.volume);
        } else {
          co_await ctx.wait(shared.mailboxes.isend(ctx, out_box(a.partner), a.volume));
        }
        break;
      case tit::ActionType::Isend:
        shell.push_request(shared.mailboxes.isend(ctx, out_box(a.partner), a.volume));
        break;
      case tit::ActionType::Recv:
      case tit::ActionType::Irecv: {
        // The old framework had no true nonblocking receive; irecv degraded
        // to a blocking mailbox read (one of its crude simplifications).
        // The slot lives in this frame, which outlives the match (we await it).
        msg::RecvSlot slot;
        msg::Request r = shared.mailboxes.match_or_post(ctx, in_box(a.partner), slot);
        if (r == nullptr) {
          co_await ctx.wait(slot.matched);
          r = std::move(slot.comm);
        }
        co_await ctx.wait(std::move(r));
        break;
      }
      case tit::ActionType::Wait:
        // An irecv queued no request here, so its wait has nothing to do.
        if (shell.has_request()) co_await ctx.wait(shell.pop_request());
        break;
      case tit::ActionType::WaitAll:
        while (shell.has_request()) co_await ctx.wait(shell.pop_request());
        break;
      case tit::ActionType::Barrier:
        co_await monolithic(ctx, shared, shared.model.stage(1.0));
        break;
      case tit::ActionType::Bcast:
      case tit::ActionType::Gather:
      case tit::ActionType::Scatter:
        co_await monolithic(ctx, shared, shared.model.tree(n, a.volume));
        break;
      case tit::ActionType::Reduce:
        co_await monolithic(ctx, shared, shared.model.tree(n, a.volume));
        co_await ctx.execute_at(std::max(a.volume2, 1.0), shell.rate());
        break;
      case tit::ActionType::AllReduce:
        co_await monolithic(ctx, shared, 2.0 * shared.model.tree(n, a.volume));
        co_await ctx.execute_at(std::max(a.volume2, 1.0), shell.rate());
        break;
      case tit::ActionType::AllToAll:
      case tit::ActionType::AllGather:
        co_await monolithic(ctx, shared, (n - 1) * shared.model.stage(a.volume));
        break;
    }
  }
}

}  // namespace

ReplayResult replay_msg(titio::ActionSource& source, const platform::Platform& platform,
                        const ReplayConfig& config, sim::Resolve resolve) {
  ReplaySession session(source, platform, config, resolve);
  OldReplayShared shared(session.engine(), session.nprocs());

  // Analytic model parameters from a representative host pair.
  if (platform.host_count() >= 2) {
    const platform::Route r = platform.route(0, 1);
    shared.model.latency = r.latency;
    double bw = 1e300;
    for (const platform::LinkId l : r.links) bw = std::min(bw, platform.link(l).bandwidth);
    shared.model.bandwidth = bw;
  } else {
    shared.model.latency = platform.loopback_latency();
    shared.model.bandwidth = platform.loopback_bandwidth();
  }

  session.spawn_ranks([&](sim::Ctx& ctx, int me) -> sim::Coro {
    return replay_rank_msg(ctx, me, session, shared);
  });
  return session.finish();
}

}  // namespace tir::core
