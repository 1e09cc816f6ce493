#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace tir::core {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

/// Run one scenario to a finished outcome.  Every failure mode of a session
/// is funneled into the outcome instead of escaping: tir::Error keeps its
/// taxonomy code, anything else std::exception-shaped becomes Generic.
ScenarioOutcome run_scenario(const titio::SharedTrace& trace, const Scenario& scenario,
                             WarningDedupe& dedupe) {
  ScenarioOutcome outcome;
  outcome.label = scenario.label;
  try {
    if (!scenario.platform) {
      throw ConfigError("sweep scenario '" + scenario.label + "' has a null platform");
    }
    titio::SharedTrace::Cursor cursor = trace.cursor();
    // Scenarios sharing one config would repeat every config warning once
    // per scenario; the sweep-owned dedupe reports each distinct warning
    // once per sweep.  A scenario that installed its own gate keeps it.
    ReplayConfig config = scenario.config;
    if (config.warning_dedupe == nullptr) config.warning_dedupe = &dedupe;
    outcome.result = replay(scenario.backend, cursor, *scenario.platform, config);
    outcome.ok = true;
  } catch (const Error& e) {
    outcome.error = e.what();
    outcome.error_code = e.code();
  } catch (const std::exception& e) {
    outcome.error = e.what();
    outcome.error_code = ErrorCode::Generic;
  }
  return outcome;
}

}  // namespace

std::vector<ScenarioOutcome> sweep(const titio::SharedTrace& trace,
                                   const std::vector<Scenario>& scenarios,
                                   const SweepOptions& options) {
  std::vector<ScenarioOutcome> outcomes(scenarios.size());
  if (scenarios.empty()) return outcomes;

  const int jobs = resolve_jobs(options.jobs);
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), scenarios.size());

  // Claim-by-atomic-index loop shared by the inline and the threaded paths;
  // each scenario is owned by exactly one worker end to end, so outcomes[i]
  // is written by a single thread and published by the join below.
  WarningDedupe warning_dedupe;
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < scenarios.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        // Cooperative cancellation: the scenario never starts, but the sweep
        // still returns a full vector with a definite per-cell outcome.
        outcomes[i].label = scenarios[i].label;
        outcomes[i].ok = false;
        outcomes[i].error = "cancelled before start (deadline expired or sweep cancelled)";
        outcomes[i].error_code = ErrorCode::Cancelled;
      } else {
        outcomes[i] = run_scenario(trace, scenarios[i], warning_dedupe);
      }
      if (options.on_scenario_done) options.on_scenario_done(i, outcomes[i]);
    }
  };

  if (workers <= 1) {
    drain();
    return outcomes;
  }

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain);
  for (std::thread& t : pool) t.join();
  return outcomes;
}

}  // namespace tir::core
