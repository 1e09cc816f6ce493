#include "core/mc_sweep.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace tir::core {

namespace {

/// Fold `instance`'s host-speed multipliers into the per-rank rates (the
/// rule is documented on McGrid).
ReplayConfig scale_rates_for_instance(const ReplayConfig& config, int nprocs,
                                      const platform::Platform& base,
                                      const platform::Platform& instance) {
  ReplayConfig out = config;
  if (out.rates.empty() || nprocs <= 0) return out;
  const std::size_t hosts = base.host_count();
  if (instance.host_count() != hosts) return out;
  std::vector<double> mult(hosts);
  bool any = false;
  for (std::size_t h = 0; h < hosts; ++h) {
    const platform::HostId id = static_cast<platform::HostId>(h);
    mult[h] = instance.host(id).speed / base.host(id).speed;
    if (mult[h] != 1.0) any = true;
  }
  if (!any) return out;
  if (out.rates.size() == 1 && nprocs > 1) {
    out.rates.assign(static_cast<std::size_t>(nprocs), out.rates[0]);
  }
  const std::vector<platform::HostId> placement = platform::place_ranks(base, nprocs);
  const std::size_t ranks =
      std::min(out.rates.size(), static_cast<std::size_t>(nprocs));
  for (std::size_t r = 0; r < ranks; ++r) {
    out.rates[r] *= mult[static_cast<std::size_t>(placement[r])];
  }
  return out;
}

/// Append scenario `s`'s seed grid sampled from `model` (the scenario's own
/// model, or one parameter's isolated model), labelled `label[TAGseed=N]`.
void append_seed_grid(McGrid& grid, std::size_t s, const McScenario& mc,
                      const platform::PlatformModel& model, const std::string& tag,
                      McCellOrigin::Kind kind, std::size_t parameter, int nprocs) {
  const std::vector<std::uint64_t>& seeds = grid.seeds[s];
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    Scenario cell;
    std::shared_ptr<const platform::Platform> instance = model.instantiate(seeds[r]);
    cell.config = scale_rates_for_instance(mc.config, nprocs, *mc.model.base(), *instance);
    cell.platform = std::move(instance);
    cell.backend = mc.backend;
    cell.label = mc.label + "[" + tag + "seed=" + std::to_string(seeds[r]) + "]";
    grid.cells.push_back(std::move(cell));
    grid.origins.push_back({s, kind, parameter, r});
  }
}

std::vector<std::string> active_parameters(const platform::PerturbationSpec& spec) {
  std::vector<std::string> out;
  for (const std::string& p : platform::perturbation_parameters()) {
    if (platform::isolate_parameter(spec, p).active()) out.push_back(p);
  }
  return out;
}

/// Assemble a tornado report from per-parameter sample sets (a parameter
/// whose replicates all failed gets an all-zero bar) and sort the bars.
TornadoReport tornado(
    double baseline,
    const std::vector<std::pair<std::string, std::vector<double>>>& per_parameter_samples) {
  TornadoReport report;
  report.baseline = baseline;
  report.entries.reserve(per_parameter_samples.size());
  for (const auto& [parameter, samples] : per_parameter_samples) {
    TornadoEntry entry;
    entry.parameter = parameter;
    if (!samples.empty()) entry.metric = stats::summarize(samples);
    entry.swing = entry.metric.max - entry.metric.min;
    report.entries.push_back(std::move(entry));
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const TornadoEntry& a, const TornadoEntry& b) {
              if (a.swing != b.swing) return a.swing > b.swing;
              return a.parameter < b.parameter;
            });
  return report;
}

}  // namespace

std::vector<std::uint64_t> mc_seed_grid(const platform::PerturbationSpec& spec,
                                        const McOptions& options) {
  if (!options.seeds.empty()) return options.seeds;
  if (options.replicates <= 0) {
    throw ConfigError("mc_sweep needs explicit seeds or replicates > 0");
  }
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(options.replicates));
  for (int i = 0; i < options.replicates; ++i) {
    seeds.push_back(spec.replicate_seed(static_cast<std::uint64_t>(i)));
  }
  return seeds;
}

McGrid mc_expand(const std::vector<McScenario>& scenarios, int nprocs,
                 const McOptions& options) {
  // Sampling happens serially here (platform copies are cheap next to a
  // replay); the expensive part — the replays — all go through one sweep.
  McGrid grid;
  grid.tornado = options.tornado;
  grid.seeds.resize(scenarios.size());
  grid.parameters.resize(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const McScenario& mc = scenarios[s];
    if (mc.model.base() == nullptr) {
      throw ConfigError("mc_sweep scenario '" + mc.label + "' has no base platform");
    }
    grid.seeds[s] = mc_seed_grid(mc.model.spec(), options);
    append_seed_grid(grid, s, mc, mc.model, "", McCellOrigin::Kind::Main, 0, nprocs);
    if (!options.tornado) continue;
    Scenario base;
    base.platform = mc.model.base();
    base.config = mc.config;
    base.backend = mc.backend;
    base.label = mc.label + "[baseline]";
    grid.cells.push_back(std::move(base));
    grid.origins.push_back({s, McCellOrigin::Kind::Baseline, 0, 0});
    grid.parameters[s] = active_parameters(mc.model.spec());
    for (std::size_t p = 0; p < grid.parameters[s].size(); ++p) {
      const std::string& name = grid.parameters[s][p];
      const platform::PlatformModel isolated(mc.model.base(),
                                             platform::isolate_parameter(mc.model.spec(), name));
      append_seed_grid(grid, s, mc, isolated, name + ",", McCellOrigin::Kind::Tornado, p,
                       nprocs);
    }
  }
  return grid;
}

McReport mc_fold(const std::vector<McScenario>& scenarios, const McGrid& grid,
                 const std::vector<ScenarioOutcome>& outcomes) {
  // Outcomes come back in input order, so the fold is order-free by
  // construction and the aggregate never depends on worker scheduling.
  McReport report;
  report.scenarios.resize(scenarios.size());
  std::vector<double> baselines(scenarios.size(), 0.0);
  std::vector<std::vector<std::vector<double>>> tornado_samples(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    report.scenarios[s].label = scenarios[s].label;
    report.scenarios[s].backend = scenarios[s].backend;
    report.scenarios[s].replicates.resize(grid.seeds[s].size());
    tornado_samples[s].resize(grid.parameters[s].size());
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const McCellOrigin& o = grid.origins[i];
    McScenarioReport& sr = report.scenarios[o.scenario];
    switch (o.kind) {
      case McCellOrigin::Kind::Main:
        sr.replicates[o.replicate].seed = grid.seeds[o.scenario][o.replicate];
        sr.replicates[o.replicate].outcome = outcomes[i];
        if (!outcomes[i].ok) ++sr.failures;
        break;
      case McCellOrigin::Kind::Baseline:
        if (outcomes[i].ok) baselines[o.scenario] = outcomes[i].result.simulated_time;
        break;
      case McCellOrigin::Kind::Tornado:
        if (outcomes[i].ok) {
          tornado_samples[o.scenario][o.parameter].push_back(
              outcomes[i].result.simulated_time);
        }
        break;
    }
  }
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    McScenarioReport& sr = report.scenarios[s];
    std::vector<double> times;
    times.reserve(sr.replicates.size());
    for (const McReplicate& r : sr.replicates) {
      if (r.outcome.ok) times.push_back(r.outcome.result.simulated_time);
    }
    if (!times.empty()) sr.simulated_time = stats::summarize(std::move(times));
    if (grid.tornado) {
      std::vector<std::pair<std::string, std::vector<double>>> bars;
      bars.reserve(grid.parameters[s].size());
      for (std::size_t p = 0; p < grid.parameters[s].size(); ++p) {
        bars.emplace_back(grid.parameters[s][p], std::move(tornado_samples[s][p]));
      }
      sr.tornado = tornado(baselines[s], bars);
    }
  }
  return report;
}

McReport mc_sweep(const titio::SharedTrace& trace,
                  const std::vector<McScenario>& scenarios,
                  const McOptions& options) {
  const McGrid grid = mc_expand(scenarios, trace.nprocs(), options);
  SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep_options.cancel = options.cancel;
  return mc_fold(scenarios, grid, sweep(trace, grid.cells, sweep_options));
}

void add_summary_fields(Json& object, const stats::Summary& s) {
  object.set("n", s.n);
  const std::pair<const char*, double> fields[] = {
      {"mean", s.mean}, {"stddev", s.stddev}, {"min", s.min}, {"max", s.max},
      {"p5", s.p5},     {"p25", s.p25},       {"p50", s.p50}, {"p75", s.p75},
      {"p95", s.p95},   {"ci95_lo", s.ci95_lo}, {"ci95_hi", s.ci95_hi}};
  for (const auto& [name, value] : fields) object.set(name, value);
}

std::string mc_report_json(const McReport& report) {
  const auto summary = [](const stats::Summary& d) {
    Json j = Json::object();
    add_summary_fields(j, d);
    return j;
  };
  Json scenarios = Json::array();
  for (const McScenarioReport& sr : report.scenarios) {
    Json replicates = Json::array();
    for (const McReplicate& rep : sr.replicates) {
      Json r = Json::object({{"seed", rep.seed}, {"ok", rep.outcome.ok}});
      if (rep.outcome.ok) {
        r.set("simulated_time", rep.outcome.result.simulated_time);
      } else {
        r.set("error", rep.outcome.error);
      }
      replicates.push_back(std::move(r));
    }
    Json scenario = Json::object(
        {{"label", sr.label}, {"backend", backend_name(sr.backend)}, {"failures", sr.failures}});
    scenario.set("replicates", std::move(replicates));
    scenario.set("simulated_time", summary(sr.simulated_time));
    if (!sr.tornado.entries.empty() || sr.tornado.baseline != 0.0) {
      Json parameters = Json::array();
      for (const TornadoEntry& e : sr.tornado.entries) {
        parameters.push_back(Json::object({{"parameter", e.parameter},
                                           {"swing", e.swing},
                                           {"simulated_time", summary(e.metric)}}));
      }
      Json tornado = Json::object({{"baseline", sr.tornado.baseline}});
      tornado.set("parameters", std::move(parameters));
      scenario.set("tornado", std::move(tornado));
    }
    scenarios.push_back(std::move(scenario));
  }
  Json out = Json::object();
  out.set("scenarios", std::move(scenarios));
  return out.dump();
}

}  // namespace tir::core
