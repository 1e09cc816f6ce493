#include "apps/run.hpp"

namespace tir::apps {

namespace {

/// Per-rank driver: walks the event stream through the instrumentation
/// model and the SMPI runtime.
sim::Coro drive_rank(sim::Ctx& ctx, int me, const LuConfig& lu, const MachineModel& machine,
                     const AcquisitionConfig& acq, smpi::World& world, hwc::Instrument& instr,
                     double& compute_seconds, tit::Trace* trace) {
  const std::vector<LuEvent> events = lu_events(lu, me);
  const double ws = lu_working_set_bytes(lu, me);
  const double app_rate = machine.app_rate(ws);
  const double probe_rate = machine.probe_rate();
  std::uint64_t event_index = 0;
  // MPI probes adjacent to the upcoming compute region: their leaking slice
  // is counted inside that region's counter window.
  double pending_mpi_boundaries = 0.0;

  const auto trace_push = [&](tit::ActionType type, int partner, double volume,
                              double volume2 = 0.0) {
    if (trace != nullptr) trace->push({type, me, partner, volume, volume2});
  };

  for (const LuEvent& ev : events) {
    ++event_index;
    switch (ev.type) {
      case LuEvent::Type::Init:
        trace_push(tit::ActionType::Init, -1, 0.0);
        break;

      case LuEvent::Type::Finalize:
        trace_push(tit::ActionType::Finalize, -1, 0.0);
        break;

      case LuEvent::Type::Compute: {
        const hwc::RegionEffect eff = instr.process_region(
            {ev.instructions, ev.calls, std::max(pending_mpi_boundaries, 1.0)});
        pending_mpi_boundaries = 0.0;
        const double app = ev.instructions * acq.compiler.instr_factor;
        const double probes = eff.executed - app;
        const double t0 = ctx.now();
        // Application work runs at the cache-regime rate with noise; probe
        // code is hot and runs at the in-cache rate.
        co_await ctx.execute_at(app, app_rate / machine.noise_factor(
                                          static_cast<std::uint64_t>(me), event_index));
        // Calibration divides counter values by *application* compute time
        // (the original run's region timings), so stop the clock here.
        compute_seconds += ctx.now() - t0;
        if (probes > 0.0) co_await ctx.execute_at(probes, probe_rate);
        if (eff.stall_seconds > 0.0) co_await ctx.sleep(eff.stall_seconds);
        // The trace records what the counter *measured*, which is the whole
        // point of the paper's Figs 1/2/4/5: an inflated counter value ends
        // up as the trace's compute volume.
        trace_push(tit::ActionType::Compute, -1,
                   instr.granularity() == hwc::Granularity::None ? app : eff.measured);
        break;
      }

      case LuEvent::Type::Send: {
        const hwc::CallEffect eff = instr.process_mpi_call();
        pending_mpi_boundaries += 1.0;
        if (eff.executed > 0.0) co_await ctx.execute_at(eff.executed, probe_rate);
        if (eff.stall_seconds > 0.0) co_await ctx.sleep(eff.stall_seconds);
        co_await world.send(ctx, me, ev.partner, ev.bytes);
        trace_push(tit::ActionType::Send, ev.partner, ev.bytes);
        break;
      }

      case LuEvent::Type::Recv: {
        const hwc::CallEffect eff = instr.process_mpi_call();
        pending_mpi_boundaries += 1.0;
        if (eff.executed > 0.0) co_await ctx.execute_at(eff.executed, probe_rate);
        if (eff.stall_seconds > 0.0) co_await ctx.sleep(eff.stall_seconds);
        co_await world.recv(ctx, me, ev.partner, ev.bytes);
        trace_push(tit::ActionType::Recv, ev.partner, ev.bytes);
        break;
      }

      case LuEvent::Type::Bcast: {
        const hwc::CallEffect eff = instr.process_mpi_call();
        pending_mpi_boundaries += 1.0;
        if (eff.executed > 0.0) co_await ctx.execute_at(eff.executed, probe_rate);
        co_await world.bcast(ctx, me, ev.bytes, ev.partner);
        trace_push(tit::ActionType::Bcast, ev.partner, ev.bytes);
        break;
      }

      case LuEvent::Type::AllReduce: {
        const hwc::CallEffect eff = instr.process_mpi_call();
        pending_mpi_boundaries += 1.0;
        if (eff.executed > 0.0) co_await ctx.execute_at(eff.executed, probe_rate);
        co_await world.allreduce(ctx, me, ev.bytes, ev.compute2);
        trace_push(tit::ActionType::AllReduce, -1, ev.bytes, ev.compute2);
        break;
      }
    }
  }
}

}  // namespace

RunResult run_lu(const LuConfig& lu, const platform::Platform& platform,
                 const MachineModel& machine, const AcquisitionConfig& acq) {
  sim::Engine engine(platform, sim::EngineConfig{acq.sharing});

  // Ground truth uses the full protocol model including the memory-copy
  // time real MPI runtimes exhibit in eager mode (the feature the paper
  // says SMPI does not model *yet*).
  smpi::Config mpi_cfg;
  mpi_cfg.model_copy_time = true;
  mpi_cfg.copy_rate = machine.truth().copy_rate;
  mpi_cfg.per_message_cpu_seconds = machine.truth().per_message_overhead;
  smpi::World world(engine, mpi_cfg, platform::place_ranks(platform, lu.nprocs),
                    std::vector<int>(static_cast<std::size_t>(lu.nprocs), 0));

  RunResult result;
  result.compute_seconds.assign(static_cast<std::size_t>(lu.nprocs), 0.0);
  tit::Trace* trace = nullptr;
  if (acq.emit_trace) {
    result.trace = tit::Trace(lu.nprocs);
    trace = &result.trace;
  }

  std::vector<hwc::Instrument> instruments;
  instruments.reserve(static_cast<std::size_t>(lu.nprocs));
  for (int r = 0; r < lu.nprocs; ++r) {
    instruments.emplace_back(acq.granularity, acq.compiler, acq.probe_costs,
                             rng::combine(acq.seed, static_cast<std::uint64_t>(r)));
  }

  MachineModel noisy(machine.truth(), acq.noise, acq.seed);
  world.spawn_ranks([&](sim::Ctx& ctx, int me) -> sim::Coro {
    return drive_rank(ctx, me, lu, noisy, acq, world, instruments[static_cast<std::size_t>(me)],
                      result.compute_seconds[static_cast<std::size_t>(me)], trace);
  });
  engine.run();

  result.wall_time = engine.now();
  result.counter_totals.reserve(instruments.size());
  for (const hwc::Instrument& i : instruments) result.counter_totals.push_back(i.counter_total());
  result.mpi_stats = world.stats();
  result.engine_steps = engine.steps();
  return result;
}

}  // namespace tir::apps
