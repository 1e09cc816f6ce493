// Replay efficiency: wall-clock time and event rate of both back-ends.
//
// The paper's title promises *efficiency* as well as accuracy: the replay
// must stay much faster than the execution it predicts.  This bench replays
// LU traces of growing size and reports host-side wall-clock, simulated
// time, actions/s, and the speedup over the (simulated) real execution.
// One full-length (250-iteration) B-8 replay anchors the comparison.
//
// The table is print-only, like the fig*/table* binaries: each row is one
// replay per back-end.  Repeated throughput figures come from perfbench
// (replay-stream) and the regression gates from bench_gates.
#include <algorithm>
#include <cstdio>

#include "core/replay.hpp"
#include "exp/experiments.hpp"

using namespace tir;

namespace {

void run_case(const exp::ClusterSetup& cluster, char cls, int np, int iters,
              const char* note) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = np;
  lu.iterations_override = iters;
  const apps::MachineModel machine(cluster.truth);

  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::RunResult traced = apps::run_lu(lu, cluster.platform, machine, acq);

  core::ReplayConfig cfg;
  cfg.rates = {cluster.truth.rate_in_cache};
  const core::ReplayResult smpi =
      core::replay(core::Backend::Smpi, traced.trace, cluster.platform, cfg);
  const core::ReplayResult msg =
      core::replay(core::Backend::Msg, traced.trace, cluster.platform, cfg);

  const double actions = static_cast<double>(traced.trace.total_actions());
  std::printf("%-6s %5d %6d | %9.0f | %8.3fs %10.0f | %8.3fs %10.0f | %8.1fx %s\n",
              lu.label().c_str(), np, iters, actions, smpi.wall_clock_seconds,
              actions / std::max(smpi.wall_clock_seconds, 1e-9), msg.wall_clock_seconds,
              actions / std::max(msg.wall_clock_seconds, 1e-9),
              traced.wall_time / std::max(smpi.wall_clock_seconds, 1e-9), note);
  std::fflush(stdout);
}

}  // namespace

int main() {
  const exp::ClusterSetup bd = exp::bordereau_setup();
  exp::print_preamble("Replay efficiency (wall-clock & action rate)",
                      "efficiency claim of RR-8092 / [5]", bd.name, -1);
  std::printf("%-6s %5s %6s | %9s | %20s | %20s | %s\n", "inst.", "procs", "iters", "actions",
              "SMPI replay (rate)", "MSG replay (rate)", "speedup-vs-real");
  run_case(bd, 'A', 4, 25, "");
  run_case(bd, 'B', 8, 25, "");
  run_case(bd, 'B', 32, 25, "");
  run_case(bd, 'B', 64, 25, "");
  run_case(bd, 'C', 64, 10, "");
  run_case(bd, 'B', 8, 250, "(full-length NPB run)");
  return 0;
}
