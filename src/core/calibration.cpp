#include "core/calibration.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "base/log.hpp"

namespace tir::core {

double calibrate_class_rate(char cls, const platform::Platform& platform,
                            const apps::MachineModel& machine,
                            const CalibrationSettings& settings) {
  apps::LuConfig lu;
  lu.cls = apps::nas_class(cls);
  lu.nprocs = 4;  // "as few resources as four cores did not raise any issue"
  lu.iterations_override = settings.iterations;

  apps::AcquisitionConfig acq = settings.acquisition;
  acq.emit_trace = false;
  const apps::RunResult run = apps::run_lu(lu, platform, machine, acq);

  const double instructions =
      std::accumulate(run.counter_totals.begin(), run.counter_totals.end(), 0.0);
  const double seconds =
      std::accumulate(run.compute_seconds.begin(), run.compute_seconds.end(), 0.0);
  TIR_ASSERT(instructions > 0.0);
  TIR_ASSERT(seconds > 0.0);
  const double rate = instructions / seconds;
  TIR_LOG(Info, "calibration " << cls << "-4: " << rate << " instr/s");
  return rate;
}

char calibration_class(const apps::LuConfig& instance, double l2_bytes,
                       const std::string& classes) {
  if (classes.empty()) return 'A';  // classic: A-4 for everything
  // Rank 0 always owns the largest share (remainders go to low coordinates),
  // so it decides whether "the instance handles data that fit in the cache".
  if (apps::lu_working_set_bytes(instance, 0) <= l2_bytes) return 'A';
  // A class without its own run falls back to classic behaviour.
  return classes.find(instance.cls.name) == std::string::npos ? 'A' : instance.cls.name;
}

double rank0_l2_bytes(const platform::Platform& platform) {
  return platform.host(platform::place_ranks(platform, 1).front()).l2_bytes;
}

double AutoCalibration::rate_at(double working_set_bytes) const {
  TIR_ASSERT(!ws_bytes.empty());
  TIR_ASSERT(ws_bytes.size() == rates.size());
  if (working_set_bytes <= ws_bytes.front()) return rates.front();
  if (working_set_bytes >= ws_bytes.back()) return rates.back();
  for (std::size_t i = 1; i < ws_bytes.size(); ++i) {
    if (working_set_bytes <= ws_bytes[i]) {
      const double frac = (working_set_bytes - ws_bytes[i - 1]) /
                          (ws_bytes[i] - ws_bytes[i - 1]);
      return rates[i - 1] + frac * (rates[i] - rates[i - 1]);
    }
  }
  return rates.back();
}

double AutoCalibration::rate_for(const apps::LuConfig& instance) const {
  return rate_at(apps::lu_working_set_bytes(instance, 0));
}

AutoCalibration calibrate_auto(const platform::Platform& platform,
                               const apps::MachineModel& machine,
                               const CalibrationSettings& settings, int steps,
                               double probe_instructions) {
  TIR_ASSERT(steps >= 2);
  const double l2 = rank0_l2_bytes(platform);
  AutoCalibration cal;
  // Simulate one probe kernel per working-set point: a fixed instruction
  // budget streamed over a buffer of that size, timed on the machine and
  // counted through the pipeline's own instrumentation (so the counter
  // perturbation enters the numerator exactly as in the other procedures).
  hwc::Instrument instrument(settings.acquisition.granularity, settings.acquisition.compiler,
                             settings.acquisition.probe_costs, /*noise_stream=*/0xca11b);
  for (int i = 0; i < steps; ++i) {
    const double frac = static_cast<double>(i) / (steps - 1);
    const double ws = l2 * (0.25 + frac * (4.0 - 0.25));
    sim::Engine engine(platform);
    double seconds = 0.0;
    engine.spawn("probe", 0, 0, [&](sim::Ctx& ctx) -> sim::Coro {
      const double app = probe_instructions * settings.acquisition.compiler.instr_factor;
      const double t0 = ctx.now();
      co_await ctx.execute_at(app, machine.app_rate(ws) / machine.noise_factor(0, i));
      seconds = ctx.now() - t0;
    });
    engine.run();
    const hwc::RegionEffect eff =
        instrument.process_region({probe_instructions, 0.0, 1.0});
    // Granularity::None has no counter; fall back to the known kernel size.
    const double measured =
        eff.measured > 0.0 ? eff.measured
                           : probe_instructions * settings.acquisition.compiler.instr_factor;
    cal.ws_bytes.push_back(ws);
    cal.rates.push_back(measured / seconds);
    TIR_LOG(Debug, "auto-calibration ws=" << ws << " rate=" << cal.rates.back());
  }
  return cal;
}

std::string calibration_cache_key(const CalibrationRequest& request) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%s|classes=%s|it=%d|truth=%.17g,%.17g,%.17g,%.17g,%.17g|noise=%.17g|seed=%llu"
                "|auto=%d,%.17g|instance=%c-%d",
                request.procedure.c_str(), request.classes.c_str(), request.iterations,
                request.truth.rate_in_cache, request.truth.rate_out_of_cache,
                request.truth.l2_bytes, request.truth.copy_rate,
                request.truth.per_message_overhead, request.noise,
                static_cast<unsigned long long>(request.seed), request.auto_steps,
                request.probe_instructions, request.instance_class, request.instance_nprocs);
  return buf;
}

namespace {

/// Reject a request no procedure can serve before anything is simulated.
void check_request(const CalibrationRequest& request) {
  const auto fail = [](const std::string& what) {
    throw ConfigError("calibration request: " + what);
  };
  if (request.truth.rate_in_cache <= 0.0 || request.truth.l2_bytes <= 0.0) {
    fail("needs a machine truth (rate_in_cache and l2_bytes)");
  }
  if (request.iterations < 1) fail("iterations must be >= 1");
  // The noise factor is 1 + noise * u with u in [-1, 1]: it must stay > 0.
  if (!(request.noise >= 0.0 && request.noise < 1.0)) fail("noise must be in [0, 1)");
  // Only the auto procedure reads the steps and the probe size.
  if (request.procedure == "auto") {
    if (request.auto_steps < 2) fail("auto_steps must be >= 2");
    if (!(request.probe_instructions > 0.0 && std::isfinite(request.probe_instructions))) {
      fail("probe_instructions must be finite and > 0");
    }
  }
  const int np = request.instance_nprocs;
  if (np < 1 || (np & (np - 1)) != 0) {
    fail("instance_nprocs must be a power of two (NPB LU), got " + std::to_string(np));
  }
}

}  // namespace

double calibrate_rate(const platform::Platform& platform, const CalibrationRequest& request) {
  check_request(request);
  const apps::MachineModel machine(request.truth, request.noise, request.seed);
  CalibrationSettings settings;
  settings.iterations = request.iterations;
  // The improved pipeline's acquisition mode: minimal instrumentation, -O3.
  settings.acquisition.granularity = hwc::Granularity::Minimal;
  settings.acquisition.compiler = hwc::kO3;
  settings.acquisition.noise = request.noise;
  settings.acquisition.seed = request.seed;

  apps::LuConfig instance;
  instance.cls = apps::nas_class(request.instance_class);
  instance.nprocs = request.instance_nprocs;

  if (request.procedure == "classic" || request.procedure == "cache-aware") {
    const std::string classes = request.procedure == "classic" ? "" : request.classes;
    for (const char cls : classes) (void)apps::nas_class(cls);  // unknown: error even if unused
    const char cls = calibration_class(instance, rank0_l2_bytes(platform), classes);
    return calibrate_class_rate(cls, platform, machine, settings);
  }
  if (request.procedure == "auto") {
    return calibrate_auto(platform, machine, settings, request.auto_steps,
                          request.probe_instructions)
        .rate_for(instance);
  }
  throw ConfigError("unknown calibration procedure '" + request.procedure +
                    "' (expected classic, cache-aware or auto)");
}

}  // namespace tir::core
