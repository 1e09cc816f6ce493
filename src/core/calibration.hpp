// Calibration of the simulated instruction rate (paper §2.3 / §3.4).
//
// The replay framework needs to know how many instructions per second the
// target machine sustains on the studied application.  Both procedures run
// small (4-process) instances under the *acquisition pipeline's own*
// instrumentation, then divide the measured counter values by the
// application's compute time:
//
//   classic      - one run of A-4.  Cheap, but A-4's working set fits the
//                  L2 cache, so the rate overestimates what larger classes
//                  achieve (the paper's issue #3).
//   cache-aware  - the A-4 rate when the instance's per-process working set
//                  fits L2, the instance-class X-4 rate when it does not
//                  (paper §3.4).  The run is picked first and only that one
//                  is simulated.
#pragma once

#include <string>
#include <vector>

#include "apps/lu.hpp"
#include "apps/machine.hpp"
#include "apps/run.hpp"
#include "platform/platform.hpp"

namespace tir::core {

struct CalibrationSettings {
  apps::AcquisitionConfig acquisition;  ///< instrumentation used when calibrating
  int iterations = 5;                   ///< SSOR iterations per calibration run
};

/// Rate measured from one 4-process run of the given class.
double calibrate_class_rate(char cls, const platform::Platform& platform,
                            const apps::MachineModel& machine,
                            const CalibrationSettings& settings);

/// The class whose 4-process run supplies the instance's rate: 'A' when
/// `classes` is empty (classic), when the instance's per-process working set
/// fits `l2_bytes`, or when its class is not listed in `classes`; otherwise
/// the instance's own class (cache-aware, paper §3.4).
char calibration_class(const apps::LuConfig& instance, double l2_bytes,
                       const std::string& classes);

/// L2 size of the host rank 0 is placed on, which the cache-aware rule and
/// the probe ladder compare working sets with.  Throws the ConfigError of
/// platform::place_ranks on a platform without hosts.
double rank0_l2_bytes(const platform::Platform& platform);

/// The paper's announced future work (§6): "improve our calibration method
/// to automatically take cache usage into account and better estimate the
/// instruction rate".  Instead of whole-application runs per class, a
/// synthetic probe kernel is timed at a ladder of working-set sizes around
/// L2; prediction interpolates the measured rate curve at the instance's
/// own working set.  This removes the binary fits/spills decision that
/// makes marginal instances (B-8 on bordereau) overshoot.
struct AutoCalibration {
  std::vector<double> ws_bytes;   ///< probe working sets, ascending
  std::vector<double> rates;      ///< measured instr/s at each working set

  /// Piecewise-linear interpolation of the rate curve (clamped at the ends).
  double rate_at(double working_set_bytes) const;
  double rate_for(const apps::LuConfig& instance) const;
};

/// Probe the machine at `steps` working-set sizes spanning
/// [0.25, 4] x L2. `probe_instructions` is the kernel size per sample.
AutoCalibration calibrate_auto(const platform::Platform& platform,
                               const apps::MachineModel& machine,
                               const CalibrationSettings& settings, int steps = 9,
                               double probe_instructions = 2e9);

// --- declarative calibration (the prediction service's entry point) ---------
//
// A prediction job names its calibration procedure as data instead of code so
// the daemon (src/svc) can run it on demand and cache the result: the
// procedures above all simulate acquisition-machine runs, which is exactly
// the expensive part a long-lived service amortizes across queries
// (docs/service.md).  Everything is deterministic — the same request against
// the same platform yields a bit-identical rate, which is what makes the
// cached and the cold paths of the service interchangeable.

struct CalibrationRequest {
  std::string procedure = "cache-aware";  ///< "classic" | "cache-aware" | "auto"
  std::string classes = "BC";             ///< cache-aware: classes with their own run
  int iterations = 5;                     ///< SSOR iterations per calibration run
  /// Ground truth of the acquisition machine (what the probes run against).
  platform::ClusterCalibrationTruth truth{};
  double noise = 0.01;
  std::uint64_t seed = 1;
  int auto_steps = 9;                     ///< auto: working-set ladder points
  double probe_instructions = 2e9;        ///< auto: kernel size per sample
  /// The instance whose rate the job wants (rate_for resolution).
  char instance_class = 'C';
  int instance_nprocs = 8;
};

/// Canonical text form of a request: every field, fixed order, %.17g floats.
/// Appending the platform's content fingerprint gives the daemon's
/// calibration cache key — equal keys guarantee equal rates.
std::string calibration_cache_key(const CalibrationRequest& request);

/// Run the requested procedure against `platform` and resolve the instance's
/// calibrated rate; classic and cache-aware simulate only the run named by
/// calibration_class.  Throws ConfigError, before simulating anything, on an
/// unknown procedure or NPB class, an unusable machine truth (zero in-cache
/// rate or L2 size), iterations < 1, noise outside [0, 1), an instance_nprocs
/// that is not a power of two, or, for the auto procedure, auto_steps < 2 or
/// probe_instructions not finite and > 0.
double calibrate_rate(const platform::Platform& platform, const CalibrationRequest& request);

}  // namespace tir::core
