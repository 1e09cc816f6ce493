#include "exp/experiments.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "apps/run.hpp"
#include "base/rng.hpp"

namespace tir::exp {

ClusterSetup bordereau_setup() {
  return {"bordereau", platform::bordereau(), platform::bordereau_truth(), hwc::ProbeCosts{}};
}

ClusterSetup graphene_setup() {
  hwc::ProbeCosts costs;
  costs.fine_instr_per_call = 440.0;  // cheaper timer/callpath upkeep
  costs.mpi_probe_instr = 9000.0;     // faster PAPI counter reads
  costs.mpi_leak_instr = 5200.0;
  costs.flush_seconds = 0.003;        // faster local disks
  return {"graphene", platform::graphene(), platform::graphene_truth(), costs};
}

int bench_iterations(int fallback) {
  if (const char* env = std::getenv("TIR_ITERS"); env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

double scale_to_full(double seconds, const apps::LuConfig& lu) {
  return seconds * static_cast<double>(lu.cls.iterations) / lu.iterations();
}

std::vector<core::Scenario> rate_ladder(const platform::Platform& platform, double base_rate,
                                        int count, double span, sim::Sharing sharing) {
  if (count < 1) throw ConfigError("rate_ladder needs at least one scenario");
  if (!(base_rate > 0.0) || !(span >= 1.0)) {
    throw ConfigError("rate_ladder needs base_rate > 0 and span >= 1");
  }
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Geometric ladder from base/span to base*span (just base when count==1).
    const double t = count > 1 ? 2.0 * i / (count - 1) - 1.0 : 0.0;
    const double rate = base_rate * std::pow(span, t);
    core::Scenario sc;
    sc.platform = &platform;
    sc.config.rates = {rate};
    sc.config.sharing = sharing;
    sc.label = "rate[" + std::to_string(i) + "]=" + std::to_string(rate);
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

CounterComparison compare_counters(const apps::LuConfig& lu, const ClusterSetup& cluster,
                                   hwc::Granularity granularity, hwc::CompilerModel compiler,
                                   int runs, int iterations, std::uint64_t seed) {
  apps::LuConfig cfg = lu;
  cfg.iterations_override = iterations;

  CounterComparison out;
  out.rel_diff_pct.assign(static_cast<std::size_t>(cfg.nprocs), 0.0);
  for (int run = 0; run < runs; ++run) {
    const std::uint64_t run_seed = rng::combine(seed, static_cast<std::uint64_t>(run));
    const apps::MachineModel machine(cluster.truth, 0.01, run_seed);

    apps::AcquisitionConfig acq;
    acq.compiler = compiler;
    acq.probe_costs = cluster.probe_costs;
    acq.seed = run_seed;

    acq.granularity = granularity;
    const apps::RunResult instrumented = apps::run_lu(cfg, cluster.platform, machine, acq);
    acq.granularity = hwc::Granularity::Coarse;
    acq.seed = rng::combine(run_seed, 0xc0a5e);  // independent coarse run
    const apps::RunResult coarse = apps::run_lu(cfg, cluster.platform, machine, acq);

    for (int p = 0; p < cfg.nprocs; ++p) {
      const auto i = static_cast<std::size_t>(p);
      out.rel_diff_pct[i] += stats::relative_error_pct(instrumented.counter_totals[i],
                                                       coarse.counter_totals[i]) /
                             runs;
    }
  }
  out.summary = stats::summarize(out.rel_diff_pct);
  return out;
}

void print_preamble(const std::string& experiment, const std::string& paper_ref,
                    const std::string& cluster, int iterations) {
  std::printf("# %s\n", experiment.c_str());
  std::printf("# reproduces: %s\n", paper_ref.c_str());
  std::printf("# cluster: %s   SSOR iterations per run: %d (set TIR_ITERS to change)\n",
              cluster.c_str(), iterations);
  std::printf("#\n");
}

void print_overhead_table(const std::vector<OverheadRow>& rows) {
  std::printf("%-8s | %12s %22s | %12s %22s\n", "inst.", "orig [5]", "instr [5] (overhead)",
              "orig new", "instr new (overhead)");
  std::printf("---------+--------------------------------------+"
              "--------------------------------------\n");
  for (const OverheadRow& r : rows) {
    const double ov_old = 100.0 * (r.instr_old - r.orig_old) / r.orig_old;
    const double ov_new = 100.0 * (r.instr_new - r.orig_new) / r.orig_new;
    std::printf("%-8s | %10.2fs %12.2fs (%+6.2f%%) | %10.2fs %12.2fs (%+6.2f%%)\n",
                r.instance.c_str(), r.orig_old, r.instr_old, ov_old, r.orig_new, r.instr_new,
                ov_new);
  }
}

void print_distribution_series(const std::vector<DistributionRow>& rows) {
  std::printf("%-8s | %8s %8s %8s %8s %8s | %8s\n", "inst.", "min", "p25", "p50", "p75", "max",
              "mean");
  std::printf("---------+----------------------------------------------+---------\n");
  for (const DistributionRow& r : rows) {
    std::printf("%-8s | %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% | %7.2f%%\n", r.instance.c_str(),
                r.summary.min, r.summary.p25, r.summary.p50, r.summary.p75, r.summary.max,
                r.summary.mean);
  }
}

void print_error_series(const std::vector<ErrorRow>& rows) {
  std::printf("%-6s %8s | %12s %12s | %10s\n", "class", "procs", "real", "simulated", "error");
  std::printf("----------------+---------------------------+-----------\n");
  for (const ErrorRow& r : rows) {
    std::printf("%-6s %8d | %11.2fs %11.2fs | %+9.2f%%\n", r.cls.c_str(), r.nprocs,
                r.real_seconds, r.predicted_seconds, r.error_pct);
  }
}

}  // namespace tir::exp
