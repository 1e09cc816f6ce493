// The simulated MPI runtime ("SMPI" substrate, paper §3.3).
//
// A World binds MPI ranks to platform hosts/cores and implements:
//   - point-to-point with MPI matching semantics (FIFO per (src, tag),
//     unexpected-message queue);
//   - the eager(detached)/rendezvous protocol split;
//   - nonblocking requests, awaited with ctx.wait(request);
//   - collectives implemented as point-to-point algorithms (binomial
//     broadcast/reduce, reduce+bcast allreduce, dissemination barrier, ring
//     allgather, pairwise alltoall, linear gather/scatter) — the approach
//     the paper contrasts with "monolithic performance models".
//
// Every operation takes the calling actor's Ctx plus its rank.  Ranks are
// driven by one actor each; the caller is responsible for that pairing
// (World::spawn_ranks sets it up for the common case).
#pragma once

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "smpi/config.hpp"

namespace tir::smpi {

/// Tag reserved for collective-internal traffic.
inline constexpr int kCollectiveTag = -4242;

/// A nonblocking-operation handle: a gate completed when the operation is
/// (MPI-)complete. For an eager isend that is after the local copy; for a
/// rendezvous isend / any irecv it tracks the transfer.
using Request = sim::ActivityPtr;

/// Cumulative operation counters (exposed for tests and efficiency benches).
struct WorldStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t eager_sends = 0;
  std::uint64_t rendezvous_sends = 0;
  std::uint64_t collectives = 0;
  double bytes_sent = 0.0;
};

class World {
 public:
  /// rank_hosts[r] / rank_cores[r]: placement of rank r (platform::place_ranks
  /// gives the usual one).
  World(sim::Engine& engine, Config config, std::vector<platform::HostId> rank_hosts,
        std::vector<int> rank_cores);

  int size() const { return static_cast<int>(rank_hosts_.size()); }
  sim::Engine& engine() { return engine_; }
  const Config& config() const { return config_; }
  const WorldStats& stats() const { return stats_; }
  platform::HostId rank_host(int rank) const;
  int rank_core(int rank) const;

  /// Spawn one actor per rank running body(ctx, rank). Actor names "rank<r>".
  void spawn_ranks(std::function<sim::Coro(sim::Ctx&, int)> body);

  // --- point-to-point ------------------------------------------------------
  /// Blocking send. Eager: returns after the local copy (transfer detached).
  /// Rendezvous: returns when the transfer completes.
  sim::Coro send(sim::Ctx& ctx, int me, int dst, double bytes, int tag = 0);

  /// Blocking receive; matches the earliest message from (src, tag).
  sim::Coro recv(sim::Ctx& ctx, int me, int src, double bytes, int tag = 0);

  Request isend(sim::Ctx& ctx, int me, int dst, double bytes, int tag = 0);
  Request irecv(sim::Ctx& ctx, int me, int src, double bytes, int tag = 0);

  // --- collectives ----------------------------------------------------------
  sim::Coro barrier(sim::Ctx& ctx, int me);
  sim::Coro bcast(sim::Ctx& ctx, int me, double bytes, int root = 0);
  /// `compute` = per-node reduction work in instructions (the trace's second
  /// volume for reduce/allreduce actions).
  sim::Coro reduce(sim::Ctx& ctx, int me, double bytes, double compute, int root = 0);
  sim::Coro allreduce(sim::Ctx& ctx, int me, double bytes, double compute);
  sim::Coro allgather(sim::Ctx& ctx, int me, double bytes);
  sim::Coro alltoall(sim::Ctx& ctx, int me, double bytes);
  sim::Coro gather(sim::Ctx& ctx, int me, double bytes, int root = 0);
  sim::Coro scatter(sim::Ctx& ctx, int me, double bytes, int root = 0);

 private:
  struct Message {
    int src = 0;
    int tag = 0;
    double bytes = 0.0;
    bool rendezvous = false;
    sim::ActivityPtr comm;  ///< pending (not started) when rendezvous
  };
  struct PostedRecv {
    int src = 0;
    int tag = 0;
    Request request;  ///< completed when the matched transfer completes
  };
  struct RankState {
    std::vector<Message> unexpected;  ///< FIFO: matching takes the earliest entry
    std::vector<PostedRecv> posted;
  };

  bool is_eager(double bytes) const { return bytes < config_.eager_threshold; }

  /// Create the transfer activity for src -> dst with piecewise factors.
  sim::ActivityPtr make_transfer(int src, int dst, double bytes, bool start_now);

  /// Attach a matched message to a posted request: start rendezvous
  /// transfers, chain completion.
  void fulfil(const Message& msg, Request request);

  /// The binomial-tree broadcast behind bcast and allreduce (uncounted in
  /// WorldStats::collectives).
  sim::Coro bcast_binomial(sim::Ctx& ctx, int me, double bytes, int root);

  sim::Engine& engine_;
  Config config_;
  std::vector<platform::HostId> rank_hosts_;
  std::vector<int> rank_cores_;
  std::vector<RankState> ranks_;
  WorldStats stats_;
  /// Returned by every eager isend: the request is complete the moment the
  /// call returns, so no per-message gate is needed.  A gate completed at
  /// construction — its handle reads done from then on, and its one
  /// start/finish pair keeps the sink's event count what it always was.
  Request eager_done_;
};

}  // namespace tir::smpi
