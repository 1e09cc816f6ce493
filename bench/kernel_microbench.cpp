// Simulation-kernel microbenchmarks (google-benchmark): the cost of the
// primitives everything else is built on.  These guard the "efficiency"
// half of the paper's title at the engine level.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/run.hpp"
#include "core/replay.hpp"
#include "exp/experiments.hpp"
#include "msg/msg.hpp"
#include "platform/clusters.hpp"
#include "sim/engine.hpp"
#include "sim/maxmin.hpp"
#include "sim/timeheap.hpp"
#include "smpi/world.hpp"
#include "tit/trace.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace {

using namespace tir;

platform::Platform flat(int nodes) {
  platform::Platform p;
  platform::ClusterSpec spec;
  spec.prefix = "h";
  spec.nodes = nodes;
  spec.core_speed = 1e9;
  spec.link_bandwidth = 1.25e8;
  spec.link_latency = 2e-5;
  platform::build_flat_cluster(p, spec);
  return p;
}

void BM_EngineExecActivities(benchmark::State& state) {
  const platform::Platform p = flat(1);
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng(p);
    eng.spawn("a", 0, 0, [n](sim::Ctx& ctx) -> sim::Coro {
      for (int i = 0; i < n; ++i) co_await ctx.execute(1e6);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineExecActivities)->Arg(1000)->Arg(10000);

void BM_PingPong(benchmark::State& state) {
  const platform::Platform p = flat(2);
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng(p);
    smpi::Config cfg;
    cfg.piecewise = smpi::PiecewiseModel();
    smpi::World w(eng, cfg, {0, 1}, {0, 0});
    w.spawn_ranks([&w, rounds](sim::Ctx& ctx, int me) -> sim::Coro {
      for (int i = 0; i < rounds; ++i) {
        if (me == 0) {
          co_await w.send(ctx, 0, 1, 1024);
          co_await w.recv(ctx, 0, 1, 1024);
        } else {
          co_await w.recv(ctx, 1, 0, 1024);
          co_await w.send(ctx, 1, 0, 1024);
        }
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_PingPong)->Arg(1000)->Arg(10000);

void BM_MaxMinContention(benchmark::State& state) {
  // All-pairs flows through one switch: stresses the max-min solver.
  const auto n = static_cast<int>(state.range(0));
  const platform::Platform p = flat(n);
  for (auto _ : state) {
    sim::Engine eng(p, sim::EngineConfig{sim::Sharing::MaxMin});
    eng.spawn("driver", 0, 0, [n](sim::Ctx& ctx) -> sim::Coro {
      std::vector<sim::ActivityPtr> comms;
      for (int i = 0; i < n; ++i) {
        comms.push_back(ctx.engine().make_comm(i, (i + 1) % n, 1e6));
      }
      for (auto& c : comms) co_await ctx.wait(std::move(c));
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MaxMinContention)->Arg(16)->Arg(64);

// Full vs. partial re-solve on a persistent flow set: n flows spread over
// n/8 single-link components, one flow removed and re-added per iteration.
// solve_all() revisits all n flows every time; solve_partial() touches only
// the 8-flow component the mutation dirtied, so the gap between the two
// curves is the whole point of the incremental kernel
// (docs/simulation_kernel.md).
sim::MaxMinSolver incremental_fixture(int n, std::vector<int>& ids) {
  const int n_links = n / 8;
  std::vector<platform::Link> links(static_cast<std::size_t>(n_links));
  for (int l = 0; l < n_links; ++l) {
    links[static_cast<std::size_t>(l)].id = l;
    links[static_cast<std::size_t>(l)].bandwidth = 1e8;
  }
  sim::MaxMinSolver s;
  s.reset_links(links);
  platform::LinkId route[1];
  for (int i = 0; i < n; ++i) {
    route[0] = i % n_links;
    ids.push_back(s.add_flow(route, 1e18));
  }
  s.solve_partial();
  return s;
}

void BM_MaxMinFullReSolve(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<int> ids;
  sim::MaxMinSolver s = incremental_fixture(n, ids);
  platform::LinkId route[1];
  int victim = 0;
  for (auto _ : state) {
    route[0] = victim % (n / 8);
    s.remove_flow(ids[static_cast<std::size_t>(victim)]);
    ids[static_cast<std::size_t>(victim)] = s.add_flow(route, 1e18);
    benchmark::DoNotOptimize(s.solve_all().size());
    victim = (victim + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows_per_solve"] =
      static_cast<double>(s.counters().flows_visited) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MaxMinFullReSolve)->Arg(1000)->Arg(10000);

void BM_MaxMinPartialReSolve(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<int> ids;
  sim::MaxMinSolver s = incremental_fixture(n, ids);
  platform::LinkId route[1];
  int victim = 0;
  for (auto _ : state) {
    route[0] = victim % (n / 8);
    s.remove_flow(ids[static_cast<std::size_t>(victim)]);
    ids[static_cast<std::size_t>(victim)] = s.add_flow(route, 1e18);
    benchmark::DoNotOptimize(s.solve_partial().size());
    victim = (victim + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows_per_solve"] =
      static_cast<double>(s.counters().flows_visited) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MaxMinPartialReSolve)->Arg(1000)->Arg(10000);

void BM_Allreduce(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const platform::Platform p = flat(n);
  for (auto _ : state) {
    sim::Engine eng(p);
    smpi::World w(eng, smpi::Config{}, platform::place_ranks(p, n),
                  std::vector<int>(static_cast<std::size_t>(n), 0));
    w.spawn_ranks([&w](sim::Ctx& ctx, int me) -> sim::Coro {
      for (int i = 0; i < 10; ++i) co_await w.allreduce(ctx, me, 64, 100);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * n * 10);
}
BENCHMARK(BM_Allreduce)->Arg(16)->Arg(64);

void BM_TraceParse(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 1000; ++i) {
    text += "p0 compute 956140\np0 send p1 1240\np1 recv p0 1240\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tit::parse_trace_string(text, 2));
  }
  state.SetItemsProcessed(state.iterations() * 3000);
}
BENCHMARK(BM_TraceParse);

void BM_ReplayJacobi(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const tit::Trace trace = apps::jacobi_trace(apps::JacobiConfig{n, 512, 512, 50, 12.0, 10});
  const platform::Platform p = flat(n);
  core::ReplayConfig cfg;
  cfg.rates = {2e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::replay(core::Backend::Smpi, trace, p, cfg).simulated_time);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(trace.total_actions()));
}
BENCHMARK(BM_ReplayJacobi)->Arg(8)->Arg(32);

// The engine's time heap in its steady state: pop the earliest activity and
// re-insert it further ahead (the hold model), with one re-key of another
// member per pop, as a rate change does.  Arg = heap size (an LU B-64
// replay holds about 74 entries).
void BM_TimeHeapChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::Activity> acts(n);
  sim::TimeHeap heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next_delay = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < n; ++i) {
    acts[i].seq = i;
    acts[i].heap_key = next_delay();
    heap.insert(&acts[i]);
  }
  std::size_t victim = 0;
  for (auto _ : state) {
    sim::Activity* const a = heap.top();
    const double now = heap.top_key();
    heap.pop();
    a->heap_key = now + next_delay();
    heap.insert(a);
    sim::Activity& b = acts[victim];
    victim = victim + 1 == n ? 0 : victim + 1;
    b.heap_key = now + next_delay();
    heap.update(&b);
  }
  benchmark::DoNotOptimize(heap.top_key());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeHeapChurn)->Arg(74)->Arg(1024);

// TITB decode alone: open a Reader on an LU B-8 trace (10 iterations,
// ~58 k actions) and drain every rank, with no replay behind it.
void BM_TitbDecode(benchmark::State& state) {
  const exp::ClusterSetup bd = exp::bordereau_setup();
  apps::LuConfig lu;
  lu.cls = apps::nas_class('B');
  lu.nprocs = 8;
  lu.iterations_override = 10;
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const tit::Trace trace =
      apps::run_lu(lu, bd.platform, apps::MachineModel(bd.truth), acq).trace;
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("kernel_microbench_decode_" + std::to_string(::getpid()) + ".titb"))
                               .string();
  titio::write_binary_trace(trace, path);
  for (auto _ : state) {
    titio::Reader reader(path);
    tit::Action a;
    std::uint64_t n = 0;
    for (int rank = 0; rank < reader.nprocs(); ++rank) {
      while (reader.next(rank, a)) ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace.total_actions()));
}
BENCHMARK(BM_TitbDecode);

}  // namespace
