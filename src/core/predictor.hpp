// End-to-end prediction pipelines: the object of the paper's evaluation.
//
// A pipeline = acquisition settings (instrumentation granularity + compiler
// flags) + calibration procedure + replay back-end.  Two presets:
//
//   Framework::Original  - [5]: TAU fine-grain instrumentation, -O0,
//                          classic A-4 calibration, MSG replay back-end.
//   Framework::Improved  - this paper: minimal instrumentation, -O3,
//                          cache-aware calibration, SMPI replay back-end.
//
// predict_lu() runs everything against the ground-truth machine model and
// reports real vs. predicted times; the relative error is what Figures 3,
// 6 and 7 plot, and the original/instrumented times are what Tables 1-2
// report.
#pragma once

#include "apps/lu.hpp"
#include "apps/machine.hpp"
#include "apps/run.hpp"
#include "core/calibration.hpp"
#include "core/replay.hpp"

namespace tir::core {

enum class Framework { Original, Improved };

struct PipelineSettings {
  Framework framework = Framework::Improved;
  int iterations = 10;             ///< SSOR iterations for every run (reduced)
  int calibration_iterations = 5;
  sim::Sharing sharing = sim::Sharing::Uncontended;
  double noise = 0.01;
  std::uint64_t seed = 1;
  hwc::ProbeCosts probe_costs{};  ///< tracing-toolchain costs on this cluster

  // Ablation switches; the defaults reproduce the paper's configurations
  // (each is overridden by the Framework preset unless `force_*` is set).
  bool replay_models_copy_time = false;  ///< the paper's "future work" feature
  bool force_classic_calibration = false;
  bool force_identity_piecewise = false;
  /// The paper's other announced future work: replace the per-class rate
  /// switch with the automatic working-set-probe calibration.
  bool use_auto_calibration = false;
};

struct Prediction {
  double real_seconds = 0.0;         ///< uninstrumented ground-truth run
  double acquisition_seconds = 0.0;  ///< instrumented (traced) run
  double predicted_seconds = 0.0;    ///< replay output
  double error_pct = 0.0;            ///< (predicted - real)/real * 100
  double overhead_pct = 0.0;         ///< (acquisition - real)/real * 100
  double calibrated_rate = 0.0;
  tit::TraceStats trace_stats;
  ReplayResult replay;
};

/// Acquisition configuration implied by a pipeline (exposed for the
/// instrumentation-impact experiments which need the same settings).
apps::AcquisitionConfig acquisition_for(const PipelineSettings& settings);

/// The pipeline of `settings` on one instance: predict_lu_sweep with one
/// variant, replayed on MSG for Framework::Original and on SMPI otherwise.
Prediction predict_lu(const apps::LuConfig& instance, const platform::Platform& platform,
                      const platform::ClusterCalibrationTruth& truth,
                      const PipelineSettings& settings);

/// One replay-side cell of a predict_lu_sweep: the levers that do NOT change
/// the acquired trace (calibration procedure, piecewise model, copy-time
/// modelling) plus the back-end that replays it.  Acquisition-affecting
/// fields (framework, sharing, noise, seed, iterations) must match the
/// sweep's base settings — predict_lu_sweep validates and throws ConfigError
/// on a mismatch, because all variants share one traced run.
struct ReplayVariant {
  std::string label;
  PipelineSettings settings;
  Backend backend = Backend::Smpi;
};

struct VariantPrediction {
  std::string label;
  Prediction prediction;
};

/// Ablation-grid pipeline: run the ground-truth and instrumented executions
/// ONCE under `base`, calibrate each variant, then replay the shared trace
/// under every variant on a core::sweep worker pool (`jobs` <= 0 means
/// hardware concurrency).  Results are in variant order and each carries the
/// shared real/acquisition times, so error percentages are directly
/// comparable across variants.  A variant whose replay fails aborts the
/// sweep with the captured tir::Error (predictions are all-or-nothing here,
/// unlike raw core::sweep outcomes).
std::vector<VariantPrediction> predict_lu_sweep(const apps::LuConfig& instance,
                                                const platform::Platform& platform,
                                                const platform::ClusterCalibrationTruth& truth,
                                                const PipelineSettings& base,
                                                const std::vector<ReplayVariant>& variants,
                                                int jobs = 0);

}  // namespace tir::core
