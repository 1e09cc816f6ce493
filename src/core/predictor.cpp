#include "core/predictor.hpp"

#include "base/log.hpp"
#include "base/stats.hpp"
#include "core/sweep.hpp"

namespace tir::core {

namespace {

/// Calibration procedure implied by a pipeline.
double calibrate_rate(const apps::LuConfig& lu, const platform::Platform& platform,
                      const apps::MachineModel& machine, const PipelineSettings& settings) {
  CalibrationSettings cal_settings;
  cal_settings.acquisition = acquisition_for(settings);
  cal_settings.iterations = settings.calibration_iterations;
  const bool classic =
      settings.framework == Framework::Original || settings.force_classic_calibration;
  if (settings.use_auto_calibration && !classic) {
    return calibrate_auto(platform, machine, cal_settings).rate_for(lu);
  }
  // Cache-aware calibration lists only the instance's own class.
  const std::string classes = classic ? "" : std::string(1, lu.cls.name);
  const char cls = calibration_class(lu, rank0_l2_bytes(platform), classes);
  return calibrate_class_rate(cls, platform, machine, cal_settings);
}

/// Replay configuration implied by a pipeline.  The MSG back-end ignores
/// the mpi block, so it is only filled for SMPI.
ReplayConfig replay_config_for(const PipelineSettings& settings,
                               const platform::ClusterCalibrationTruth& truth, double rate,
                               Backend backend) {
  ReplayConfig cfg;
  cfg.rates = {rate};
  cfg.sharing = settings.sharing;
  if (backend == Backend::Smpi) {
    cfg.mpi.piecewise =
        settings.force_identity_piecewise ? smpi::PiecewiseModel() : smpi::reference_piecewise();
    cfg.mpi.model_copy_time = settings.replay_models_copy_time;
    cfg.mpi.copy_rate = truth.copy_rate;
  }
  return cfg;
}

Prediction assemble(const apps::RunResult& real, const apps::RunResult& traced,
                    const tit::TraceStats& trace_stats, double rate, ReplayResult replay) {
  Prediction out;
  out.calibrated_rate = rate;
  out.replay = replay;
  out.real_seconds = real.wall_time;
  out.acquisition_seconds = traced.wall_time;
  out.predicted_seconds = out.replay.simulated_time;
  out.error_pct = stats::relative_error_pct(out.predicted_seconds, out.real_seconds);
  out.overhead_pct = stats::relative_error_pct(out.acquisition_seconds, out.real_seconds);
  out.trace_stats = trace_stats;
  return out;
}

}  // namespace

apps::AcquisitionConfig acquisition_for(const PipelineSettings& settings) {
  apps::AcquisitionConfig acq;
  if (settings.framework == Framework::Original) {
    acq.granularity = hwc::Granularity::Fine;
    acq.compiler = hwc::kO0;
  } else {
    acq.granularity = hwc::Granularity::Minimal;
    acq.compiler = hwc::kO3;
  }
  acq.noise = settings.noise;
  acq.seed = settings.seed;
  acq.sharing = settings.sharing;
  acq.probe_costs = settings.probe_costs;
  return acq;
}

Prediction predict_lu(const apps::LuConfig& instance, const platform::Platform& platform,
                      const platform::ClusterCalibrationTruth& truth,
                      const PipelineSettings& settings) {
  const Backend backend =
      settings.framework == Framework::Original ? Backend::Msg : Backend::Smpi;
  return predict_lu_sweep(instance, platform, truth, settings,
                          {{backend_name(backend), settings, backend}}, /*jobs=*/1)
      .front()
      .prediction;
}

std::vector<VariantPrediction> predict_lu_sweep(const apps::LuConfig& instance,
                                                const platform::Platform& platform,
                                                const platform::ClusterCalibrationTruth& truth,
                                                const PipelineSettings& base,
                                                const std::vector<ReplayVariant>& variants,
                                                int jobs) {
  for (const ReplayVariant& v : variants) {
    const PipelineSettings& s = v.settings;
    if (s.framework != base.framework || s.sharing != base.sharing || s.noise != base.noise ||
        s.seed != base.seed || s.iterations != base.iterations) {
      throw ConfigError("sweep variant '" + v.label +
                        "' changes acquisition-affecting settings (framework/sharing/noise/"
                        "seed/iterations); all variants replay one shared traced run — use a "
                        "separate predict_lu call for it");
    }
  }

  apps::LuConfig lu = instance;
  if (lu.iterations_override <= 0) lu.iterations_override = base.iterations;
  const apps::MachineModel machine(truth, base.noise, base.seed);

  // Ground truth + acquisition once, shared by every variant.
  apps::AcquisitionConfig orig = acquisition_for(base);
  orig.granularity = hwc::Granularity::None;
  orig.emit_trace = false;
  const apps::RunResult real = apps::run_lu(lu, platform, machine, orig);
  apps::AcquisitionConfig acq = acquisition_for(base);
  acq.emit_trace = true;
  apps::RunResult traced = apps::run_lu(lu, platform, machine, acq);
  const tit::TraceStats trace_stats = tit::stats(traced.trace);

  // Calibrate each variant (one X-4 run, a pure function of its inputs:
  // MachineModel::noise_factor is keyed, not sequential), then replay the
  // shared trace under every variant on the worker pool.
  std::vector<double> rates;
  rates.reserve(variants.size());
  std::vector<Scenario> scenarios;
  scenarios.reserve(variants.size());
  for (const ReplayVariant& v : variants) {
    rates.push_back(calibrate_rate(lu, platform, machine, v.settings));
    Scenario sc;
    sc.platform = &platform;
    sc.backend = v.backend;
    sc.label = v.label;
    sc.config = replay_config_for(v.settings, truth, rates.back(), v.backend);
    scenarios.push_back(std::move(sc));
  }

  const titio::SharedTrace shared(std::move(traced.trace));  // stats taken above
  SweepOptions options;
  options.jobs = jobs;
  const std::vector<ScenarioOutcome> outcomes = sweep(shared, scenarios, options);

  std::vector<VariantPrediction> out;
  out.reserve(variants.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ScenarioOutcome& o = outcomes[i];
    if (!o.ok) {
      throw Error("prediction sweep variant '" + o.label + "' failed: " + o.error, o.error_code);
    }
    out.push_back(
        VariantPrediction{o.label, assemble(real, traced, trace_stats, rates[i], o.result)});
    TIR_LOG(Info, instance.label() << " [" << o.label
                                   << "]: predicted=" << out.back().prediction.predicted_seconds
                                   << "s err=" << out.back().prediction.error_pct << "%");
  }
  return out;
}

}  // namespace tir::core
