#include "svc/protocol.hpp"

#include <cstdio>

#include "base/binio.hpp"
#include "platform/model.hpp"

namespace tir::svc {

namespace {

ScenarioSpec parse_scenario_spec(const Json& s, std::size_t index) {
  if (!s.is_object()) throw ParseError("scenario " + std::to_string(index) + " is not an object");
  ScenarioSpec spec;
  spec.label = s.str_or("label", "scenario" + std::to_string(index));
  const std::string backend = s.str_or("backend", "smpi");
  if (backend == "msg") {
    spec.backend = core::Backend::Msg;
  } else if (backend == "smpi") {
    spec.backend = core::Backend::Smpi;
  } else {
    throw ConfigError("scenario '" + spec.label + "': unknown backend '" + backend + "'");
  }
  const Json& rates = s.get("rates");
  if (rates.is_array()) {
    for (std::size_t i = 0; i < rates.size(); ++i) spec.rates.push_back(rates.at(i).as_number());
  } else if (rates.is_number()) {
    spec.rates.push_back(rates.as_number());
  }
  spec.contention = s.bool_or("contention", false);
  spec.watchdog_seconds = s.num_or("watchdog_seconds", 0.0);
  return spec;
}

core::CalibrationRequest parse_calibration(const Json& c) {
  core::CalibrationRequest request;
  request.procedure = c.str_or("procedure", request.procedure);
  request.classes = c.str_or("classes", request.classes);
  request.iterations = c.int_or("iterations", request.iterations);
  request.noise = c.num_or("noise", request.noise);
  request.seed = c.int_or<std::uint64_t>("seed", 1);
  request.auto_steps = c.int_or("auto_steps", request.auto_steps);
  request.probe_instructions = c.num_or("probe_instructions", request.probe_instructions);
  const std::string cls = c.str_or("instance_class", std::string(1, request.instance_class));
  if (cls.size() != 1) throw ConfigError("calibration instance_class must be one character");
  request.instance_class = cls[0];
  request.instance_nprocs = c.int_or("instance_nprocs", request.instance_nprocs);
  const Json& truth = c.get("truth");
  if (!truth.is_object()) {
    throw ConfigError("calibration needs a truth object (rate_in_cache, rate_out_of_cache, "
                      "l2_bytes at minimum)");
  }
  request.truth.rate_in_cache = truth.num_or("rate_in_cache", 0.0);
  request.truth.rate_out_of_cache =
      truth.num_or("rate_out_of_cache", request.truth.rate_in_cache);
  request.truth.l2_bytes = truth.num_or("l2_bytes", 0.0);
  request.truth.copy_rate = truth.num_or("copy_rate", 0.0);
  request.truth.per_message_overhead = truth.num_or("per_message_overhead", 0.0);
  return request;
}

Json render_calibration(const core::CalibrationRequest& request) {
  const platform::ClusterCalibrationTruth& truth = request.truth;
  return Json::object(
      {{"procedure", request.procedure},
       {"classes", request.classes},
       {"iterations", request.iterations},
       {"noise", request.noise},
       {"seed", request.seed},
       {"auto_steps", request.auto_steps},
       {"probe_instructions", request.probe_instructions},
       {"instance_class", std::string(1, request.instance_class)},
       {"instance_nprocs", request.instance_nprocs},
       {"truth", Json::object({{"rate_in_cache", truth.rate_in_cache},
                               {"rate_out_of_cache", truth.rate_out_of_cache},
                               {"l2_bytes", truth.l2_bytes},
                               {"copy_rate", truth.copy_rate},
                               {"per_message_overhead", truth.per_message_overhead}})}});
}

}  // namespace

JobRequest parse_request(const std::string& line) {
  const Json j = Json::parse(line);
  if (!j.is_object()) throw ParseError("request is not a JSON object");
  JobRequest request;
  request.op = j.str_or("op", "predict");
  if (request.op == "ping" || request.op == "stats" || request.op == "flush" ||
      request.op == "shutdown") {
    return request;
  }
  if (request.op != "predict") throw ConfigError("unknown op '" + request.op + "'");

  request.trace = j.str_or("trace", "");
  if (request.trace.empty()) throw ConfigError("predict needs a trace path");
  request.nprocs = j.int_or("nprocs", -1);
  request.platform = j.str_or("platform", "");
  request.metrics = j.bool_or("metrics", false);
  request.deadline_ms = j.num_or("deadline_ms", 0.0);
  if (request.deadline_ms < 0) throw ConfigError("deadline_ms must be >= 0");
  request.idem_key = j.str_or("idem", "");
  request.perturb = j.str_or("perturb", "");
  if (!request.perturb.empty()) {
    // Validate the grammar at the wire so a malformed spec fails the request
    // (ConfigError) instead of a worker mid-job.
    (void)platform::PerturbationSpec::parse(request.perturb);
  }
  request.mc_replicates = j.int_or("mc_replicates", 0);
  if (request.mc_replicates < 0) throw ConfigError("mc_replicates must be >= 0");
  if (request.mc_replicates > 0 && request.perturb.empty()) {
    throw ConfigError("mc_replicates needs a perturb spec");
  }

  const Json& calibration = j.get("calibration");
  if (calibration.is_object()) {
    request.calibrate = true;
    request.calibration = parse_calibration(calibration);
  }

  const Json& scenarios = j.get("scenarios");
  if (scenarios.is_array()) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      request.scenarios.push_back(parse_scenario_spec(scenarios.at(i), i));
    }
  }
  if (request.scenarios.empty()) {
    // Default: one SMPI scenario at the calibrated (or default) rate.
    ScenarioSpec spec;
    spec.label = "default";
    request.scenarios.push_back(spec);
  }
  for (const ScenarioSpec& spec : request.scenarios) {
    if (spec.rates.empty() && !request.calibrate) {
      throw ConfigError("scenario '" + spec.label +
                        "' has no rates and the job has no calibration");
    }
  }
  return request;
}

std::string render_request(const JobRequest& request) {
  Json j = Json::object();
  j.set("op", request.op.empty() ? "predict" : request.op);
  if (j.get("op").as_string() != "predict") return j.dump();
  j.set("trace", request.trace);
  if (request.nprocs > 0) j.set("nprocs", request.nprocs);
  if (!request.platform.empty()) j.set("platform", request.platform);
  if (request.metrics) j.set("metrics", true);
  if (request.deadline_ms > 0) j.set("deadline_ms", request.deadline_ms);
  if (!request.idem_key.empty()) j.set("idem", request.idem_key);
  if (!request.perturb.empty()) j.set("perturb", request.perturb);
  if (request.mc_replicates > 0) j.set("mc_replicates", request.mc_replicates);
  if (request.calibrate) j.set("calibration", render_calibration(request.calibration));
  Json scenarios = Json::array();
  for (const ScenarioSpec& spec : request.scenarios) {
    Json s = Json::object();
    s.set("label", spec.label);
    s.set("backend", core::backend_name(spec.backend));
    if (!spec.rates.empty()) {
      Json rates = Json::array();
      for (const double r : spec.rates) rates.push_back(r);
      s.set("rates", std::move(rates));
    }
    if (spec.contention) s.set("contention", true);
    if (spec.watchdog_seconds > 0) s.set("watchdog_seconds", spec.watchdog_seconds);
    scenarios.push_back(std::move(s));
  }
  j.set("scenarios", std::move(scenarios));
  return j.dump();
}

std::string content_key(const JobRequest& request) {
  JobRequest canonical = request;
  canonical.id = 0;
  canonical.deadline_ms = 0.0;
  canonical.idem_key.clear();
  const std::string rendered = render_request(canonical);
  std::uint64_t h = binio::mix64(binio::kHashSeed, 'I');
  for (const char c : rendered) h = binio::mix64(h, static_cast<unsigned char>(c));
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(h));
  return buffer;
}

Json make_rejected(std::uint64_t job, int retry_after_ms, std::size_t queue_depth,
                   std::size_t queue_capacity) {
  return Json::object({{"type", "rejected"},
                       {"job", job},
                       {"retry_after_ms", retry_after_ms},
                       {"queue_depth", queue_depth},
                       {"queue_capacity", queue_capacity},
                       {"error", "admission queue full"}});
}

Json make_accepted(std::uint64_t job, std::size_t queue_depth, std::size_t queue_capacity) {
  return Json::object({{"type", "accepted"},
                       {"job", job},
                       {"queue_depth", queue_depth},
                       {"queue_capacity", queue_capacity}});
}

Json make_failed(std::uint64_t job, const std::string& error, ErrorCode code) {
  return Json::object({{"type", "failed"},
                       {"job", job},
                       {"error", error},
                       {"error_code", error_code_name(code)}});
}

Json make_scenario(std::uint64_t job, std::size_t index, const core::ScenarioOutcome& outcome) {
  Json r = Json::object({{"type", "scenario"},
                         {"job", job},
                         {"index", index},
                         {"label", outcome.label},
                         {"ok", outcome.ok}});
  if (outcome.ok) {
    r.set("simulated_time", outcome.result.simulated_time);
    r.set("actions_replayed", outcome.result.actions_replayed);
    r.set("engine_steps", outcome.result.engine_steps);
    r.set("wall_clock_seconds", outcome.result.wall_clock_seconds);
    if (outcome.result.degraded) {
      r.set("degraded", true);
      r.set("skipped_actions", outcome.result.skipped_actions);
    }
  } else {
    r.set("error", outcome.error);
    r.set("error_code", error_code_name(outcome.error_code));
  }
  return r;
}

core::ScenarioOutcome parse_scenario(const Json& response) {
  core::ScenarioOutcome outcome;
  outcome.label = response.str_or("label", "");
  outcome.ok = response.bool_or("ok", false);
  if (outcome.ok) {
    outcome.result.simulated_time = response.num_or("simulated_time", 0.0);
    outcome.result.actions_replayed = response.int_or<std::uint64_t>("actions_replayed", 0);
    outcome.result.engine_steps = response.int_or<std::uint64_t>("engine_steps", 0);
    outcome.result.wall_clock_seconds = response.num_or("wall_clock_seconds", 0.0);
    outcome.result.degraded = response.bool_or("degraded", false);
    outcome.result.skipped_actions = response.int_or<std::uint64_t>("skipped_actions", 0);
  } else {
    outcome.error = response.str_or("error", "");
    outcome.error_code = error_code_from_name(response.str_or("error_code", "error"));
  }
  return outcome;
}

}  // namespace tir::svc
