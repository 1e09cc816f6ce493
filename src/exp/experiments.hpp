// Shared experiment drivers for the bench binaries (one binary per paper
// table/figure; see DESIGN.md §3 for the index).
#pragma once

#include <string>
#include <vector>

#include "apps/lu.hpp"
#include "base/stats.hpp"
#include "core/predictor.hpp"
#include "core/sweep.hpp"
#include "hwc/instrument.hpp"
#include "platform/clusters.hpp"

namespace tir::exp {

/// A named cluster with its ground-truth machine behaviour and the probe
/// costs of the tracing toolchain on that CPU generation (counter reads and
/// timer calls are cheaper on graphene's Nehalem cores than on bordereau's
/// Opterons).
struct ClusterSetup {
  std::string name;
  platform::Platform platform;
  platform::ClusterCalibrationTruth truth;
  hwc::ProbeCosts probe_costs{};
};

ClusterSetup bordereau_setup();
ClusterSetup graphene_setup();

/// SSOR iterations used by the benches; overridable with TIR_ITERS.  The
/// paper runs the full 250; errors and overheads are iteration-stable (both
/// sides of every ratio use the same count), so a reduced default keeps the
/// benches interactive.
int bench_iterations(int fallback = 10);

/// Scale a reduced-iteration time up to the full NPB iteration count so
/// absolute values are comparable with the paper's tables.
double scale_to_full(double seconds, const apps::LuConfig& lu);

// --- scenario grids for core::sweep -----------------------------------------

/// Build a calibrated-rate ladder over one platform: `count` scenarios whose
/// single-rank rate spans [base_rate/span, base_rate*span] geometrically
/// (the grid a "how sensitive is the prediction to calibration error?"
/// sweep replays).  All scenarios borrow `platform`, which must outlive the
/// sweep; labels are "rate[i]=<rate>".
std::vector<core::Scenario> rate_ladder(const platform::Platform& platform, double base_rate,
                                        int count, double span = 2.0,
                                        sim::Sharing sharing = sim::Sharing::Uncontended);

// --- instrumentation-impact experiments (Figures 1/2/4/5) ------------------

/// Per-process relative difference (%) of measured instruction counts
/// between `granularity` and coarse instrumentation, averaged over `runs`
/// seeds (the paper averages ten runs).
struct CounterComparison {
  std::vector<double> rel_diff_pct;  ///< one entry per process
  stats::Summary summary;
};

CounterComparison compare_counters(const apps::LuConfig& lu, const ClusterSetup& cluster,
                                   hwc::Granularity granularity, hwc::CompilerModel compiler,
                                   int runs, int iterations, std::uint64_t seed = 1);

// --- table/series printers --------------------------------------------------

/// Print the header block every bench starts with.
void print_preamble(const std::string& experiment, const std::string& paper_ref,
                    const std::string& cluster, int iterations);

struct OverheadRow {
  std::string instance;
  double orig_old, instr_old;  ///< former implementation (fine, -O0)
  double orig_new, instr_new;  ///< modified implementation (minimal, -O3)
};

/// Tables 1-2 layout: times plus overhead percentages.
void print_overhead_table(const std::vector<OverheadRow>& rows);

struct DistributionRow {
  std::string instance;
  stats::Summary summary;  ///< of per-process relative differences (%)
};

/// Figures 1/2/4/5 layout: min, quartiles, max and mean per instance.
void print_distribution_series(const std::vector<DistributionRow>& rows);

struct ErrorRow {
  std::string cls;
  int nprocs = 0;
  double real_seconds = 0.0;
  double predicted_seconds = 0.0;
  double error_pct = 0.0;
};

/// Figures 3/6/7 layout: relative error vs. process count per class.
void print_error_series(const std::vector<ErrorRow>& rows);

}  // namespace tir::exp
