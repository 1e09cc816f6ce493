#include "core/mc_sweep.hpp"

#include <algorithm>
#include <cstdio>
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

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_summary(std::string& out, const obs::DistributionSummary& s) {
  out += "{\"n\":" + std::to_string(s.n);
  const std::pair<const char*, double> fields[] = {
      {"mean", s.mean},      {"stddev", s.stddev}, {"min", s.min},
      {"max", s.max},        {"p5", s.p5},         {"p25", s.p25},
      {"p50", s.p50},        {"p75", s.p75},       {"p95", s.p95},
      {"ci95_lo", s.ci95_lo}, {"ci95_hi", s.ci95_hi}};
  for (const auto& [name, value] : fields) {
    out += ",\"";
    out += name;
    out += "\":";
    append_double(out, value);
  }
  out += "}";
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
    sr.simulated_time = obs::summarize(std::move(times));
    if (grid.tornado) {
      std::vector<std::pair<std::string, std::vector<double>>> bars;
      bars.reserve(grid.parameters[s].size());
      for (std::size_t p = 0; p < grid.parameters[s].size(); ++p) {
        bars.emplace_back(grid.parameters[s][p], std::move(tornado_samples[s][p]));
      }
      sr.tornado = obs::tornado(baselines[s], bars);
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

std::string mc_report_json(const McReport& report) {
  std::string out = "{\"scenarios\":[";
  for (std::size_t s = 0; s < report.scenarios.size(); ++s) {
    const McScenarioReport& sr = report.scenarios[s];
    if (s != 0) out += ",";
    out += "{\"label\":\"";
    append_escaped(out, sr.label);
    out += "\",\"backend\":\"";
    out += backend_name(sr.backend);
    out += "\",\"failures\":" + std::to_string(sr.failures);
    out += ",\"replicates\":[";
    for (std::size_t r = 0; r < sr.replicates.size(); ++r) {
      const McReplicate& rep = sr.replicates[r];
      if (r != 0) out += ",";
      out += "{\"seed\":" + std::to_string(rep.seed);
      out += ",\"ok\":";
      out += rep.outcome.ok ? "true" : "false";
      if (rep.outcome.ok) {
        out += ",\"simulated_time\":";
        append_double(out, rep.outcome.result.simulated_time);
      } else {
        out += ",\"error\":\"";
        append_escaped(out, rep.outcome.error);
        out += "\"";
      }
      out += "}";
    }
    out += "],\"simulated_time\":";
    append_summary(out, sr.simulated_time);
    if (!sr.tornado.entries.empty() || sr.tornado.baseline != 0.0) {
      out += ",\"tornado\":{\"baseline\":";
      append_double(out, sr.tornado.baseline);
      out += ",\"parameters\":[";
      for (std::size_t e = 0; e < sr.tornado.entries.size(); ++e) {
        const obs::TornadoEntry& entry = sr.tornado.entries[e];
        if (e != 0) out += ",";
        out += "{\"parameter\":\"";
        append_escaped(out, entry.parameter);
        out += "\",\"swing\":";
        append_double(out, entry.swing);
        out += ",\"simulated_time\":";
        append_summary(out, entry.metric);
        out += "}";
      }
      out += "]}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace tir::core
