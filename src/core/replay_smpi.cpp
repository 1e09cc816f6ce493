// The new replay engine: drive the SMPI runtime from a Time-Independent
// Trace.  This mirrors the paper's reimplementation where an action like
// `p0 send p1 1240` becomes a plain smpi_mpi_send() and every protocol
// subtlety lives in the runtime, not in the replay code.
#include "core/session.hpp"
#include "smpi/world.hpp"

namespace tir::core {

namespace {

sim::Coro replay_rank_smpi(sim::Ctx& ctx, int me, ReplaySession& session, smpi::World& world) {
  RankShell shell(ctx, me, session, Backend::Smpi);
  // With no modelled copy cost (the default), a blocking eager send is
  // complete the moment isend returns and a blocking recv is exactly a wait
  // on its request — both run without entering a World coroutine.
  const smpi::Config& wcfg = world.config();
  const bool zero_copy_cost =
      wcfg.per_message_cpu_seconds == 0.0 && !wcfg.model_copy_time;
  if (shell.resume_sleep() > 0.0) co_await ctx.sleep(shell.resume_sleep());
  while (shell.next()) {
    const tit::Action& a = shell.action();
    const int root = a.partner >= 0 ? a.partner : 0;
    switch (a.type) {
      case tit::ActionType::Init:
      case tit::ActionType::Finalize:
        break;
      case tit::ActionType::Compute:
        co_await ctx.execute_at(a.volume, shell.rate());
        break;
      case tit::ActionType::Send:
        if (zero_copy_cost && a.volume < wcfg.eager_threshold) {
          (void)world.isend(ctx, me, a.partner, a.volume);
        } else {
          co_await world.send(ctx, me, a.partner, a.volume);
        }
        break;
      case tit::ActionType::Isend:
        shell.push_request(world.isend(ctx, me, a.partner, a.volume));
        break;
      case tit::ActionType::Recv:
        if (zero_copy_cost) {
          co_await ctx.wait(world.irecv(ctx, me, a.partner, a.volume));
        } else {
          co_await world.recv(ctx, me, a.partner, a.volume);
        }
        break;
      case tit::ActionType::Irecv:
        shell.push_request(world.irecv(ctx, me, a.partner, a.volume));
        break;
      case tit::ActionType::Wait:
        if (!shell.has_request()) {
          throw MalformedTraceError("p" + std::to_string(me) +
                                    ": wait with no outstanding request");
        }
        co_await ctx.wait(shell.pop_request());
        break;
      case tit::ActionType::WaitAll:
        // Sequential awaits complete at the max of the completion times,
        // which is MPI_Waitall semantics (waiting consumes no resources).
        while (shell.has_request()) co_await ctx.wait(shell.pop_request());
        break;
      case tit::ActionType::Barrier:
        co_await world.barrier(ctx, me);
        break;
      case tit::ActionType::Bcast:
        co_await world.bcast(ctx, me, a.volume, root);
        break;
      case tit::ActionType::Reduce:
        co_await world.reduce(ctx, me, a.volume, a.volume2, root);
        break;
      case tit::ActionType::AllReduce:
        co_await world.allreduce(ctx, me, a.volume, a.volume2);
        break;
      case tit::ActionType::AllToAll:
        co_await world.alltoall(ctx, me, a.volume);
        break;
      case tit::ActionType::AllGather:
        co_await world.allgather(ctx, me, a.volume);
        break;
      case tit::ActionType::Gather:
        co_await world.gather(ctx, me, a.volume, root);
        break;
      case tit::ActionType::Scatter:
        co_await world.scatter(ctx, me, a.volume, root);
        break;
    }
  }
}

}  // namespace

ReplayResult replay_smpi(titio::ActionSource& source, const platform::Platform& platform,
                         const ReplayConfig& config, sim::Resolve resolve) {
  ReplaySession session(source, platform, config, resolve);
  smpi::World world(session.engine(), config.mpi, session.rank_hosts(),
                    std::vector<int>(static_cast<std::size_t>(session.nprocs()), 0));
  session.spawn_ranks([&](sim::Ctx& ctx, int me) -> sim::Coro {
    return replay_rank_smpi(ctx, me, session, world);
  });
  return session.finish();
}

}  // namespace tir::core
