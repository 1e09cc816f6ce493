// Trace acquisition walkthrough: produce a Time-Independent Trace on disk,
// the way the paper's instrumented runs do, then reload and replay it.
//
//   $ ./trace_acquisition [out_dir]
//
// Shows the full acquisition story: an instrumented LU run on the modelled
// bordereau cluster emits one trace file per process plus a manifest; the
// files use the paper's exact action format and can be fed to replay_cli.
#include <cstdio>
#include <string>

#include "apps/run.hpp"
#include "core/replay.hpp"
#include "exp/experiments.hpp"
#include "tit/trace.hpp"

int main(int argc, char** argv) {
  using namespace tir;
  const std::string out_dir = argc > 1 ? argv[1] : "traces";

  const exp::ClusterSetup cluster = exp::bordereau_setup();
  apps::LuConfig lu;
  lu.cls = apps::nas_class('A');
  lu.nprocs = 8;
  lu.iterations_override = 5;

  // Instrumented run with the paper's improved settings: minimal
  // (selective) instrumentation, -O3.
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  const apps::MachineModel machine(cluster.truth);
  const apps::RunResult run = apps::run_lu(lu, cluster.platform, machine, acq);

  const std::string manifest = tit::write_trace(run.trace, out_dir, "lu_" + lu.label());
  const tit::TraceStats ts = tit::stats(run.trace);

  std::printf("acquired %s on %s:\n", lu.label().c_str(), cluster.name.c_str());
  std::printf("  instrumented run time : %.3f s\n", run.wall_time);
  std::printf("  trace files           : %s (+ %d per-process .tit files)\n", manifest.c_str(),
              run.trace.nprocs());
  std::printf("  actions               : %zu (%zu computes, %zu messages, %zu collectives)\n",
              ts.actions, ts.computes, ts.p2p_messages, ts.collectives);
  std::printf("  first lines of p0     :\n");
  for (std::size_t i = 0; i < 6 && i < run.trace.actions(0).size(); ++i) {
    std::printf("    %s\n", tit::to_line(run.trace.actions(0)[i]).c_str());
  }

  // Round trip: reload through the manifest and replay.
  const tit::Trace reloaded = tit::load_trace(manifest);
  core::ReplayConfig cfg;
  cfg.rates = {cluster.truth.rate_in_cache};
  const core::ReplayResult replay =
      core::replay(core::Backend::Smpi, reloaded, cluster.platform, cfg);
  std::printf("  replayed prediction   : %.3f s (real was %.3f s)\n", replay.simulated_time,
              run.wall_time);
  return 0;
}
