#include "core/job.hpp"

namespace tir::core {

ReplayConfig replay_config(const ScenarioSpec& spec, double calibrated_rate) {
  ReplayConfig config;
  config.rates = spec.rates.empty() ? std::vector<double>{calibrated_rate} : spec.rates;
  config.sharing = spec.contention ? sim::Sharing::MaxMin : sim::Sharing::Uncontended;
  config.watchdog_seconds = spec.watchdog_seconds;
  return config;
}

JobPlan plan_job(const std::vector<ScenarioSpec>& specs,
                 const std::shared_ptr<const platform::Platform>& platform, int nprocs,
                 double calibrated_rate,
                 const std::optional<platform::PerturbationSpec>& perturb,
                 const McOptions& options) {
  JobPlan plan;
  plan.rows.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    McScenario row;
    if (perturb) row.model = platform::PlatformModel(platform, *perturb);
    row.config = replay_config(spec, calibrated_rate);
    row.backend = spec.backend;
    row.label = spec.label;
    plan.rows.push_back(std::move(row));
  }
  if (perturb) {
    plan.grid = mc_expand(plan.rows, nprocs, options);
  } else {
    for (const McScenario& row : plan.rows) {
      plan.grid.cells.push_back({platform, row.config, row.backend, row.label});
    }
  }
  return plan;
}

}  // namespace tir::core
