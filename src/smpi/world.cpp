#include "smpi/world.hpp"

#include <algorithm>

namespace tir::smpi {

PiecewiseModel reference_piecewise() {
  // GbE-class calibration in the spirit of SMPI's shipped piecewise models:
  // small messages see much higher effective latency and a fraction of wire
  // bandwidth; factors relax towards (1, 1) as messages grow.
  return PiecewiseModel({
      {1420.0, 2.2, 0.50},
      {32768.0, 1.60, 0.85},
      {65536.0, 1.25, 0.92},
      {327680.0, 1.08, 0.96},
      {4194304.0, 1.02, 0.99},
  });
}

World::World(sim::Engine& engine, Config config, std::vector<platform::HostId> rank_hosts,
             std::vector<int> rank_cores)
    : engine_(engine),
      config_(std::move(config)),
      rank_hosts_(std::move(rank_hosts)),
      rank_cores_(std::move(rank_cores)) {
  TIR_ASSERT(!rank_hosts_.empty());
  TIR_ASSERT(rank_hosts_.size() == rank_cores_.size());
  for (std::size_t r = 0; r < rank_hosts_.size(); ++r) {
    const platform::Host& h = engine_.platform().host(rank_hosts_[r]);
    TIR_ASSERT(rank_cores_[r] >= 0 && rank_cores_[r] < h.cores);
  }
  ranks_.resize(rank_hosts_.size());
  eager_done_ = engine_.make_gate();
  engine_.complete_now(eager_done_);
}

platform::HostId World::rank_host(int rank) const {
  TIR_ASSERT(rank >= 0 && rank < size());
  return rank_hosts_[static_cast<std::size_t>(rank)];
}

int World::rank_core(int rank) const {
  TIR_ASSERT(rank >= 0 && rank < size());
  return rank_cores_[static_cast<std::size_t>(rank)];
}

void World::spawn_ranks(std::function<sim::Coro(sim::Ctx&, int)> body) {
  for (int r = 0; r < size(); ++r) {
    engine_.spawn("rank" + std::to_string(r), rank_host(r), rank_core(r),
                  [body, r](sim::Ctx& ctx) -> sim::Coro { return body(ctx, r); });
  }
}

sim::ActivityPtr World::make_transfer(int src, int dst, double bytes, bool start_now) {
  const double lf = config_.piecewise.lat_factor(bytes);
  const double bf = config_.piecewise.bw_factor(bytes);
  return engine_.make_comm(rank_host(src), rank_host(dst), bytes, lf, bf, start_now);
}

void World::fulfil(const Message& msg, const Request& request) {
  if (msg.rendezvous) engine_.start_activity(msg.comm);
  engine_.chain(msg.comm, request);
}

sim::Coro World::send(sim::Ctx& ctx, int me, int dst, double bytes, int tag) {
  const Request req = isend(ctx, me, dst, bytes, tag);
  if (config_.per_message_cpu_seconds > 0.0) {
    co_await ctx.sleep(config_.per_message_cpu_seconds);
  }
  if (is_eager(bytes)) {
    // Detached: the application only sees the duration of the local copy
    // (paper §3.3); the transfer proceeds without the sender.
    if (config_.model_copy_time && bytes > 0.0) {
      co_await ctx.execute_at(bytes, config_.copy_rate);
    }
  } else {
    co_await ctx.wait(req);
  }
}

Request World::isend(sim::Ctx& ctx, int me, int dst, double bytes, int tag) {
  (void)ctx;
  TIR_ASSERT(dst >= 0 && dst < size());
  ++stats_.sends;
  stats_.bytes_sent += bytes;
  if (obs::Sink* const sink = engine_.sink()) {
    // Protocol truth for the observability layer: which path this message
    // actually took, and whether it is collective-internal traffic.
    sink->on_message(me, dst, bytes, is_eager(bytes), tag == kCollectiveTag);
  }
  Message msg;
  msg.src = me;
  msg.tag = tag;
  msg.bytes = bytes;
  msg.rendezvous = !is_eager(bytes);
  if (msg.rendezvous) {
    ++stats_.rendezvous_sends;
  } else {
    ++stats_.eager_sends;
  }
  msg.comm = make_transfer(me, dst, bytes, /*start_now=*/!msg.rendezvous);

  // Request semantics: eager isend is complete as soon as the data left the
  // user buffer (immediately, in simulated terms) — the shared pre-completed
  // gate stands for it; a rendezvous isend tracks the transfer, so the comm
  // itself is the request (no per-message gate either way).
  Request req = msg.rendezvous ? msg.comm : eager_done_;

  // MPI matching: earliest posted receive that accepts (src, tag).
  RankState& peer = ranks_[static_cast<std::size_t>(dst)];
  for (auto it = peer.posted.begin(); it != peer.posted.end(); ++it) {
    const bool src_ok = it->src == kAnySource || it->src == me;
    const bool tag_ok = it->tag == kAnyTag || it->tag == tag;
    if (src_ok && tag_ok) {
      fulfil(msg, it->request);
      peer.posted.erase(it);
      return req;
    }
  }
  peer.unexpected.push_back(std::move(msg));
  return req;
}

Request World::irecv(sim::Ctx& ctx, int me, int src, double bytes, int tag) {
  (void)ctx;
  (void)bytes;
  ++stats_.recvs;
  RankState& mine = ranks_[static_cast<std::size_t>(me)];
  // Earliest matching unexpected message wins (FIFO per source and tag).
  // On a match the transfer itself is the request — waiting on the comm is
  // equivalent to a gate chained to it, without the per-message gate.
  for (auto it = mine.unexpected.begin(); it != mine.unexpected.end(); ++it) {
    const bool src_ok = src == kAnySource || src == it->src;
    const bool tag_ok = tag == kAnyTag || tag == it->tag;
    if (src_ok && tag_ok) {
      if (it->rendezvous) engine_.start_activity(it->comm);
      Request req = std::move(it->comm);
      mine.unexpected.erase(it);
      return req;
    }
  }
  // No message yet: a gate is needed as the placeholder the future match
  // chains onto (fulfil()).
  Request req = engine_.make_gate();
  mine.posted.push_back(PostedRecv{src, tag, req});
  return req;
}

sim::Coro World::recv(sim::Ctx& ctx, int me, int src, double bytes, int tag) {
  const Request req = irecv(ctx, me, src, bytes, tag);
  co_await ctx.wait(req);
  // Eager data lands in a runtime buffer; the receive pays the copy into the
  // user buffer (only modelled when the config says so).
  if (config_.per_message_cpu_seconds > 0.0) {
    co_await ctx.sleep(config_.per_message_cpu_seconds);
  }
  if (bytes > 0.0 && is_eager(bytes) && config_.model_copy_time) {
    co_await ctx.execute_at(bytes, config_.copy_rate);
  }
}

sim::Coro World::wait(sim::Ctx& ctx, Request request) { co_await ctx.wait(std::move(request)); }

sim::Coro World::waitall(sim::Ctx& ctx, std::vector<Request> requests) {
  // Waiting consumes no resources, so awaiting sequentially completes at the
  // max of the completion times, which is MPI_Waitall semantics.
  for (Request& r : requests) co_await ctx.wait(std::move(r));
}

sim::WaitAnyAwaiter World::waitany(sim::Ctx& ctx, std::vector<Request> requests) {
  return ctx.wait_any(std::move(requests));
}

}  // namespace tir::smpi
