// Collective operations as point-to-point algorithms.
//
// The paper credits the SMPI back-end with simulating collectives "as sets
// of point-to-point communications" instead of the monolithic analytic
// models most trace replayers use.  Each operation has exactly one
// algorithm, a classic one every MPI library ships:
//   barrier    - dissemination (ceil(log2 n) rounds)
//   bcast      - binomial tree
//   reduce     - binomial tree (mirror of bcast), per-merge compute
//   allreduce  - reduce to 0 + binomial bcast
//   allgather  - ring (n-1 steps)
//   alltoall   - shifted pairwise exchange (n-1 steps)
//   gather     - linear to root
//   scatter    - linear from root
//
// Nonblocking sends are used wherever a round exchanges in both directions
// so rendezvous-sized payloads cannot deadlock.
#include "smpi/world.hpp"

namespace tir::smpi {

namespace {
/// Token payload for barrier notifications (one byte: pure latency cost).
constexpr double kTokenBytes = 1.0;
}  // namespace

sim::Coro World::barrier(sim::Ctx& ctx, int me) {
  ++stats_.collectives;
  const int n = size();
  for (int dist = 1; dist < n; dist <<= 1) {
    const int dst = (me + dist) % n;
    const int src = (me - dist % n + n) % n;
    const Request out = isend(ctx, me, dst, kTokenBytes, kCollectiveTag);
    co_await recv(ctx, me, src, kTokenBytes, kCollectiveTag);
    co_await ctx.wait(out);
  }
}

sim::Coro World::bcast(sim::Ctx& ctx, int me, double bytes, int root) {
  ++stats_.collectives;
  co_await bcast_binomial(ctx, me, bytes, root);
}

sim::Coro World::bcast_binomial(sim::Ctx& ctx, int me, double bytes, int root) {
  const int n = size();
  TIR_ASSERT(root >= 0 && root < n);
  const int vrank = (me - root + n) % n;
  // Receive from the parent in the binomial tree...
  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      const int parent = ((vrank & ~mask) + root) % n;
      co_await recv(ctx, me, parent, bytes, kCollectiveTag);
      break;
    }
    mask <<= 1;
  }
  // ...then forward to the children below.
  mask >>= 1;
  while (mask > 0) {
    if ((vrank | mask) != vrank && (vrank | mask) < n) {
      const int child = ((vrank | mask) + root) % n;
      co_await send(ctx, me, child, bytes, kCollectiveTag);
    }
    mask >>= 1;
  }
}

sim::Coro World::reduce(sim::Ctx& ctx, int me, double bytes, double compute, int root) {
  ++stats_.collectives;
  const int n = size();
  TIR_ASSERT(root >= 0 && root < n);
  const int vrank = (me - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) == 0) {
      const int vchild = vrank | mask;
      if (vchild < n) {
        const int child = (vchild + root) % n;
        co_await recv(ctx, me, child, bytes, kCollectiveTag);
        if (compute > 0.0) co_await ctx.execute(compute);  // merge partial result
      }
    } else {
      const int parent = ((vrank & ~mask) + root) % n;
      co_await send(ctx, me, parent, bytes, kCollectiveTag);
      break;
    }
    mask <<= 1;
  }
}

sim::Coro World::allreduce(sim::Ctx& ctx, int me, double bytes, double compute) {
  ++stats_.collectives;
  co_await reduce(ctx, me, bytes, compute, 0);
  co_await bcast_binomial(ctx, me, bytes, 0);
}

sim::Coro World::allgather(sim::Ctx& ctx, int me, double bytes) {
  ++stats_.collectives;
  const int n = size();
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  // Ring: in step s every rank forwards the block it received in step s-1.
  for (int step = 0; step < n - 1; ++step) {
    const Request out = isend(ctx, me, right, bytes, kCollectiveTag);
    co_await recv(ctx, me, left, bytes, kCollectiveTag);
    co_await ctx.wait(out);
  }
}

sim::Coro World::alltoall(sim::Ctx& ctx, int me, double bytes) {
  ++stats_.collectives;
  const int n = size();
  for (int step = 1; step < n; ++step) {
    const int dst = (me + step) % n;
    const int src = (me - step + n) % n;
    const Request out = isend(ctx, me, dst, bytes, kCollectiveTag);
    co_await recv(ctx, me, src, bytes, kCollectiveTag);
    co_await ctx.wait(out);
  }
}

sim::Coro World::gather(sim::Ctx& ctx, int me, double bytes, int root) {
  ++stats_.collectives;
  const int n = size();
  TIR_ASSERT(root >= 0 && root < n);
  if (me == root) {
    for (int r = 0; r < n; ++r) {
      if (r != root) co_await recv(ctx, me, r, bytes, kCollectiveTag);
    }
  } else {
    co_await send(ctx, me, root, bytes, kCollectiveTag);
  }
}

sim::Coro World::scatter(sim::Ctx& ctx, int me, double bytes, int root) {
  ++stats_.collectives;
  const int n = size();
  TIR_ASSERT(root >= 0 && root < n);
  if (me == root) {
    for (int r = 0; r < n; ++r) {
      if (r != root) co_await send(ctx, me, r, bytes, kCollectiveTag);
    }
  } else {
    co_await recv(ctx, me, root, bytes, kCollectiveTag);
  }
}

}  // namespace tir::smpi
