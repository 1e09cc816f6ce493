// End-to-end performance prediction of a NAS LU instance: the paper's
// flagship use case.
//
//   $ ./lu_prediction [CLASS] [NPROCS] [bordereau|graphene]
//   $ ./lu_prediction B 32 bordereau
//
// Walks through the whole pipeline explicitly - acquisition, calibration,
// replay - and compares the prediction against the simulated "real"
// execution, with both the original and the improved framework.
//
// Operands parse through examples/cli_args.hpp: an unknown class or
// cluster, or a rank count that is not a power of two, prints the usage
// and exits 2.
#include <cstdio>
#include <string>

#include "cli_args.hpp"
#include "core/predictor.hpp"
#include "exp/experiments.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [CLASS] [NPROCS] [bordereau|graphene]\n"
               "  CLASS   NAS class S, W, A, B, C or D (default B)\n"
               "  NPROCS  a power of two (default 32)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tir;

  apps::LuConfig lu;
  lu.cls = apps::nas_class('B');
  lu.nprocs = 32;
  bool graphene = false;

  cli::Args args(usage);
  args.positional("CLASS", false, "one NAS class letter", [&lu](const std::string& v) {
    if (v.size() != 1) return false;
    lu.cls = apps::nas_class(v[0]);  // ConfigError on an unknown class
    return true;
  });
  args.positional("NPROCS", false, "a power of two",
                  cli::number(lu.nprocs, [](int n) { return n > 0 && (n & (n - 1)) == 0; }));
  args.positional("CLUSTER", false, "bordereau or graphene", [&graphene](const std::string& v) {
    graphene = v == "graphene";
    return graphene || v == "bordereau";
  });
  if (!args.parse(argc, argv)) return cli::kUsageExit;

  const exp::ClusterSetup cluster = graphene ? exp::graphene_setup() : exp::bordereau_setup();
  lu.iterations_override = exp::bench_iterations(10);

  std::printf("Predicting LU %s on %s (%d SSOR iterations per run)\n\n", lu.label().c_str(),
              cluster.name.c_str(), lu.iterations());

  for (const core::Framework fw : {core::Framework::Original, core::Framework::Improved}) {
    core::PipelineSettings settings;
    settings.framework = fw;
    settings.iterations = lu.iterations();
    const core::Prediction p = core::predict_lu(lu, cluster.platform, cluster.truth, settings);

    std::printf("=== %s framework ===\n",
                fw == core::Framework::Original ? "original [5]" : "improved (this paper)");
    std::printf("  real execution        : %9.3f s\n", p.real_seconds);
    std::printf("  instrumented run      : %9.3f s  (overhead %+.2f%%)\n",
                p.acquisition_seconds, p.overhead_pct);
    std::printf("  calibrated rate       : %9.3e instr/s\n", p.calibrated_rate);
    std::printf("  trace                 : %zu actions, %zu messages (%.0f%% eager)\n",
                p.trace_stats.actions, p.trace_stats.p2p_messages,
                p.trace_stats.p2p_messages > 0
                    ? 100.0 * p.trace_stats.eager_messages / p.trace_stats.p2p_messages
                    : 0.0);
    std::printf("  predicted time        : %9.3f s\n", p.predicted_seconds);
    std::printf("  relative error        : %+9.2f%%\n", p.error_pct);
    std::printf("  replay wall-clock     : %9.3f s (%.0f actions/s)\n\n",
                p.replay.wall_clock_seconds,
                p.trace_stats.actions / std::max(p.replay.wall_clock_seconds, 1e-9));
  }
  return 0;
}
