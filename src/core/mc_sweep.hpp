// core::mc_sweep: Monte Carlo variability analysis over platform models.
//
// Where core::sweep asks "replay this trace under these N concrete
// scenarios", mc_sweep asks the sensitivity question on top: "replay under
// this *family* of platforms" — a platform::PlatformModel per scenario,
// sampled at a seed grid.  The engine is deliberately thin: it expands the
// scenario × seed grid (plus, when requested, the one-at-a-time tornado
// sub-grids) into a flat vector of plain Scenarios, each owning its sampled
// platform instance through platform::PlatformRef, and pushes the whole
// thing through ONE unchanged core::sweep call.  The two halves are public
// (mc_expand, mc_fold) so a caller that runs the sweep itself — the
// prediction service streams every cell as it finishes — expands and folds
// exactly the same grid.  Every guarantee of the sweep layer is inherited
// wholesale:
//
//   * Determinism — platform sampling is a pure function of (seed, parameter
//     identity) and each cell's replay is bit-identical at any worker count,
//     so per-replicate results AND the aggregate quantiles are bit-identical
//     at any --jobs (differentially tested in tests/core/mc_sweep_test.cpp).
//   * Fail isolation — a replicate that fails becomes its own ok=false
//     outcome; the summary is computed over the survivors and the failure
//     count is reported, never silently absorbed.
//   * Shared-input economy — all replicates of all scenarios stream from the
//     one decoded SharedTrace.
//
// The tornado report ranks parameters by output swing: for each perturbable
// parameter the same seed grid is re-run with *only* that parameter's
// distribution active (platform::isolate_parameter), and the spread of the
// resulting makespans — against the unperturbed baseline — becomes the
// parameter's bar (TornadoReport, widest first).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.hpp"
#include "base/stats.hpp"
#include "core/sweep.hpp"
#include "platform/model.hpp"

namespace tir::core {

/// One row of a Monte Carlo grid: a platform family instead of a platform.
struct McScenario {
  platform::PlatformModel model;
  ReplayConfig config{};
  Backend backend = Backend::Smpi;
  std::string label;
};

struct McOptions {
  /// Explicit instance seeds.  When empty, `replicates` seeds are derived
  /// from each scenario's spec seed via PerturbationSpec::replicate_seed.
  std::vector<std::uint64_t> seeds;
  /// Number of derived replicates when `seeds` is empty.  mc_sweep throws
  /// ConfigError when both are unset — the grid size is an explicit choice.
  int replicates = 0;
  /// Worker threads for the one underlying core::sweep (<= 0: hardware).
  int jobs = 0;
  /// Borrowed cancel token, same contract as SweepOptions::cancel.
  const CancelToken* cancel = nullptr;
  /// Also run the one-at-a-time tornado sub-grids (baseline + one grid per
  /// active parameter) and fill McScenarioReport::tornado.
  bool tornado = false;
};

/// One sampled replicate: the instance seed and the finished outcome.
struct McReplicate {
  std::uint64_t seed = 0;
  ScenarioOutcome outcome;
};

/// One bar of a tornado diagram: how much the output metric swings when a
/// single parameter is perturbed with all the others pinned to nominal.
struct TornadoEntry {
  std::string parameter;  ///< platform::perturbation_parameters() name
  stats::Summary metric;  ///< output distribution, this parameter alone
  double swing = 0.0;     ///< metric.max - metric.min
};

/// Per-parameter sensitivity report, entries sorted by swing, widest first
/// (ties broken by parameter name so the order is deterministic).
struct TornadoReport {
  double baseline = 0.0;  ///< output metric of the unperturbed platform
  std::vector<TornadoEntry> entries;
};

struct McScenarioReport {
  std::string label;
  Backend backend = Backend::Smpi;
  /// Replicates in seed-grid order (input order, independent of --jobs).
  std::vector<McReplicate> replicates;
  /// Distribution of simulated_time over the ok replicates (all zero when
  /// none is ok).
  stats::Summary simulated_time;
  std::size_t failures = 0;
  /// Filled only under McOptions::tornado (baseline + per-parameter bars).
  TornadoReport tornado;
};

struct McReport {
  std::vector<McScenarioReport> scenarios;  ///< input order
};

/// The seed grid mc_sweep will use for a spec under these options (explicit
/// seeds verbatim, otherwise derived).  Exposed so callers — the service,
/// the CLIs, the differential tests — can name the exact grid in reports.
std::vector<std::uint64_t> mc_seed_grid(const platform::PerturbationSpec& spec,
                                        const McOptions& options);

/// Where one expanded cell folds back to: replicate `replicate` of the main
/// grid or of tornado parameter `parameter`'s grid, or the baseline cell.
struct McCellOrigin {
  std::size_t scenario = 0;
  enum class Kind { Main, Tornado, Baseline } kind = Kind::Main;
  std::size_t parameter = 0;  ///< index into McGrid::parameters[scenario]
  std::size_t replicate = 0;  ///< index into McGrid::seeds[scenario]
};

/// A Monte Carlo grid expanded into plain cells.  Per scenario the cells
/// are its seed grid in order (labelled `label[seed=N]`), then under
/// McOptions::tornado the baseline (`label[baseline]`) and one seed grid per
/// active parameter (`label[PARAM,seed=N]`).  Each cell owns its sampled
/// platform.  Time-independent replay computes at the calibrated per-rank
/// rates, not at Host::speed, so a sampled host.speed multiplier reaches the
/// prediction through the cell's rates: rank r runs on the host
/// platform::place_ranks gives it (as in both back-ends) and its rate is
/// scaled by that host's instance/base speed ratio.  A cell whose multipliers are all 1.0
/// keeps the scenario's config bit for bit, rate-vector shape included.
struct McGrid {
  std::vector<Scenario> cells;
  std::vector<McCellOrigin> origins;                  ///< parallel to cells
  std::vector<std::vector<std::uint64_t>> seeds;      ///< per scenario
  std::vector<std::vector<std::string>> parameters;   ///< per scenario, tornado only
  bool tornado = false;
};

/// Sample every cell of the grid; `nprocs` is the trace's rank count.
/// Throws ConfigError for a scenario without a base platform or a grid
/// without a size.
McGrid mc_expand(const std::vector<McScenario>& scenarios, int nprocs,
                 const McOptions& options);

/// Fold the outcomes of `grid.cells` (same order) back into per-scenario
/// replicates, quantiles and tornado bars.
McReport mc_fold(const std::vector<McScenario>& scenarios, const McGrid& grid,
                 const std::vector<ScenarioOutcome>& outcomes);

/// mc_expand, one core::sweep over the cells, mc_fold.
McReport mc_sweep(const titio::SharedTrace& trace,
                  const std::vector<McScenario>& scenarios,
                  const McOptions& options = {});

/// Add `n` and the 11 moment and quantile fields of `s` to `object`, in
/// declaration order (%.17g, so a summary round-trips exactly).
void add_summary_fields(Json& object, const stats::Summary& s);

/// Render the report as a self-contained JSON document (the `-mc-seeds`
/// report of replay_cli / tir-submit; format in docs/variability.md).
std::string mc_report_json(const McReport& report);

}  // namespace tir::core
