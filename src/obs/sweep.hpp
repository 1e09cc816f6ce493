// Sweep-level observability: combine per-session metrics across a scenario
// sweep.
//
// Each replay session drives exactly one obs::Sink on its own thread, so a
// parallel sweep cannot funnel events into one TimelineSink.  The pattern is
// per-session sinks plus this aggregator: give every scenario its own
// TimelineSink, aggregate() it when the scenario finishes (e.g. from
// core::SweepOptions::on_scenario_done, which may fire concurrently), and
// record() the report here.  SweepAggregator is the only obs type that is
// safe to share across threads — every member synchronizes on an internal
// mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace tir::obs {

/// Order-free summary of a sample set: moments, extremes, interpolated
/// quantiles (type-7, the numpy/R default) and a normal-approximation 95%
/// confidence interval on the mean.  summarize() sorts a copy, so the result
/// is bit-identical no matter what order the samples arrived in — which is
/// what lets core::mc_sweep promise identical aggregates at any --jobs.
struct DistributionSummary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample stddev (n-1); 0 when n < 2
  double min = 0.0;
  double max = 0.0;
  double p5 = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double ci95_lo = 0.0;  ///< mean ± 1.96·stddev/√n
  double ci95_hi = 0.0;
};

/// Summarize `samples` (taken by value: sorted internally).  n==0 yields the
/// all-zero summary.
DistributionSummary summarize(std::vector<double> samples);

/// One bar of a tornado diagram: how much the output metric swings when a
/// single parameter is perturbed with all the others pinned to nominal.
struct TornadoEntry {
  std::string parameter;        ///< platform::perturbation_parameters() name
  DistributionSummary metric;   ///< output distribution, this parameter alone
  double swing = 0.0;           ///< metric.max - metric.min
};

/// Per-parameter sensitivity report, entries sorted by swing, widest first
/// (ties broken by parameter name so the order is deterministic).
struct TornadoReport {
  double baseline = 0.0;  ///< output metric of the unperturbed platform
  std::vector<TornadoEntry> entries;
};

/// Assemble a report from per-parameter sample sets and sort the bars.
TornadoReport tornado(double baseline,
                      const std::vector<std::pair<std::string, std::vector<double>>>&
                          per_parameter_samples);

class SweepAggregator {
 public:
  /// Host-side timing of one job/scenario around its replay: how long the
  /// work sat in an admission queue before a worker picked it up, and how
  /// long the replay itself ran.  Both zero for plain in-process sweeps; the
  /// prediction service (src/svc) fills them so service metrics separate
  /// time-in-queue from time-in-replay.
  struct JobTiming {
    // Explicit constructors instead of member initializers: JobTiming is a
    // default argument of record() below, and a nested class's NSDMIs are
    // not usable before the enclosing class is complete.
    JobTiming() : JobTiming(0.0, 0.0) {}
    JobTiming(double queue_wait, double replay_wall)
        : queue_wait_seconds(queue_wait), replay_wall_seconds(replay_wall) {}
    double queue_wait_seconds;
    double replay_wall_seconds;
  };

  struct Entry {
    std::size_t index = 0;  ///< scenario position in the sweep's input order
    std::string label;
    MetricsReport report;
    JobTiming timing;
  };

  /// Cross-scenario roll-up of the recorded reports.
  struct Summary {
    std::size_t scenarios = 0;
    double total_simulated_time = 0.0;
    std::uint64_t total_steps = 0;
    double total_compute = 0.0;
    double total_comm = 0.0;
    double total_wait = 0.0;
    double min_simulated_time = 0.0;
    double max_simulated_time = 0.0;
    // Host-side service timing (JobTiming roll-up).
    double total_queue_wait = 0.0;
    double total_replay_wall = 0.0;
    double max_queue_wait = 0.0;
  };

  /// Record one scenario's report.  Thread-safe; callable concurrently from
  /// sweep workers.
  void record(std::size_t index, std::string label, MetricsReport report,
              JobTiming timing = JobTiming());

  /// Snapshot of everything recorded so far, sorted by scenario index.
  std::vector<Entry> entries() const;

  /// Thread-safe roll-up over the recorded reports.
  Summary summary() const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace tir::obs
