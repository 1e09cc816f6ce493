// core::plan_job: the one place a prediction job becomes the grid to sweep.
//
// A job, whether it arrives as tird wire JSON or as replay_cli / tir-submit
// flags, is a list of ScenarioSpecs over one trace and one base platform,
// optionally under a platform perturbation.  plan_job maps each spec onto a
// ReplayConfig (explicit rates or the job's calibrated rate, contention,
// watchdog) and chooses the expansion: one plain cell per spec on the base
// platform, or core::mc_expand's seeded Monte Carlo grid when the job is
// perturbed.  Callers then run the cells through core::sweep and, for a
// perturbed plan only, fold the outcomes with core::mc_fold(plan.rows,
// plan.grid, outcomes).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mc_sweep.hpp"

namespace tir::core {

/// One scenario of a job, before platform and rate resolution.
struct ScenarioSpec {
  std::string label;
  Backend backend = Backend::Smpi;
  std::vector<double> rates;  ///< empty = use the job's calibrated rate
  bool contention = false;    ///< MaxMin link sharing instead of Uncontended
  double watchdog_seconds = 0.0;
};

/// The replay configuration `spec` asks for; `calibrated_rate` stands in for
/// empty rates.
ReplayConfig replay_config(const ScenarioSpec& spec, double calibrated_rate);

struct JobPlan {
  /// One row per spec, in spec order: what mc_fold folds a perturbed grid
  /// back onto.
  std::vector<McScenario> rows;
  /// The cells to sweep.  Unperturbed: one per spec on the base platform,
  /// with no origins (there is nothing to fold).  Perturbed: mc_expand's grid.
  McGrid grid;
};

/// Plan a job over a trace of `nprocs` ranks.  A `perturb` spec samples
/// each spec over the seed grid of `options` (replicates or seeds,
/// tornado); options.jobs and options.cancel belong to the caller's sweep.
JobPlan plan_job(const std::vector<ScenarioSpec>& specs,
                 const std::shared_ptr<const platform::Platform>& platform, int nprocs,
                 double calibrated_rate,
                 const std::optional<platform::PerturbationSpec>& perturb,
                 const McOptions& options);

}  // namespace tir::core
