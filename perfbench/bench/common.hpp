// Shared plumbing of the benchmark program: options, clocks, the span
// recorder of the traced run, LU acquisition, the layer probes and the
// result report.  perfbench/README.md describes the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "apps/run.hpp"
#include "core/calibration.hpp"
#include "core/replay.hpp"
#include "exp/experiments.hpp"
#include "stats.hpp"
#include "titio/shared.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds();

/// Peak resident set size of the process so far (VmHWM), MiB.
double peak_rss_mib();

/// Seed mixing: an independent 64-bit value per (seed, stream, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index = 0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work;   ///< scratch directory for generated inputs
  std::filesystem::path spans;  ///< where the traced run writes its spans
};

// --- spans of the traced run -------------------------------------------------

/// One recorded span: a named interval, the span that caused it and the run
/// it belongs to.  Times are nanoseconds since the tracer was created.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while the span is open
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::string run;
};

/// Records spans in memory while enabled; write() dumps them when the run
/// ends.  Thread-safe: each thread keeps its own parent chain.
class Tracer {
 public:
  explicit Tracer(std::string run) : run_(std::move(run)) {}

  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// RAII span: records [construction, destruction) under the calling
  /// thread's innermost open span.  A no-op while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  /// Per span name: count, total and self time (total minus the time
  /// covered by child spans).
  struct NameSummary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, NameSummary> summary() const;

  /// Write every span plus the per-name summary as one JSON document.
  void write(const std::filesystem::path& path) const;

 private:
  std::int64_t now_ns() const;

  std::string run_;
  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

// --- inputs --------------------------------------------------------------------

/// One LU acquisition: the trace the simulated instrumented run recorded and
/// that run's makespan, the reference the prediction error is measured
/// against.
struct Acquisition {
  tir::tit::Trace trace;
  double reference_seconds = 0.0;
};

Acquisition acquire_lu(const tir::exp::ClusterSetup& cluster, char cls, int nprocs,
                       int iterations, std::uint64_t seed);

/// Cache-aware calibration request for an LU instance acquired on `cluster`.
tir::core::CalibrationRequest calibration_request(const tir::exp::ClusterSetup& cluster,
                                                  char cls, int nprocs, std::uint64_t seed);

/// |predicted - reference| / reference, in percent.
double error_pct(double predicted, double reference);

/// Bitwise equality of the three figures a prediction reports.
bool same_prediction(const tir::core::ReplayResult& a, const tir::core::ReplayResult& b);

// --- report ----------------------------------------------------------------------

/// Collects the run's metrics and details and prints them: one detail line
/// (inputs, host, sample counts, ratio bases) and, last, the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing metric together with its sample count.
  void timing(const std::string& name, double value, const std::string& unit, std::size_t n);
  /// A ratio metric together with its base.
  void ratio(const std::string& name, const Ratio& r, const std::string& unit = "ratio");
  /// A tail percentile; records a failure when the samples cannot support it.
  void tail(const std::string& name, const std::vector<double>& values, double q,
            const std::string& unit);
  void input(const std::string& name, std::uint64_t content_hash, std::uint64_t actions);
  /// A free-form detail, already rendered as JSON.
  void detail(const std::string& key, const std::string& json);
  /// An output check; any false check makes the run incorrect.
  void check(const std::string& name, bool ok);

  Attempts attempts;

  bool correct() const;
  /// Print the detail line and the result line to stdout.
  void print(const Options& options) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> details_;
  std::vector<std::string> inputs_;
  std::map<std::string, bool> checks_;
  std::vector<std::string> problems_;
};

std::string json_string(const std::string& s);
std::string json_number(double v);

/// Host record printed beside every result.
std::string host_json(double sweep_cpu_per_wall);

/// Worker threads for parallel sections: min(4, nproc).
int bench_jobs();

/// One completed prediction, stamped with the timed section's clock and
/// the process CPU time spent in the section so far.
struct Completion {
  double t_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t actions = 0;
};

/// Fewest windows a timed section may yield (end-to-end figures need them).
inline constexpr std::size_t kMinWindows = 5;

/// What one timed section measured.  Throughput and CPU cost are taken per
/// window of `window` consecutive completions and reported as the median
/// over windows, which keeps a burst of interference on a shared host from
/// moving the whole run.
struct Figures {
  explicit Figures(std::size_t window) : window(window) {}

  std::size_t window;
  std::vector<Completion> completions;  ///< in completion order
  std::uint64_t predictions = 0;        ///< predictions that passed their check
  std::uint64_t actions = 0;            ///< trace actions those predictions replayed
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Samples latency_ms;  ///< one per prediction
  Samples error_pct;   ///< one per prediction that passed its check

  void complete(double t_s, double cpu_s, std::uint64_t replayed) {
    completions.push_back({t_s, cpu_s, replayed});
    ++predictions;
    actions += replayed;
  }
};

/// Add the end-to-end metrics of a timed section and its set-up times.
void report_end_to_end(Report& report, const Figures& figures, const Samples& setup_s);

/// bench.trace_overhead_ratio: untraced over traced throughput, minus one.
void report_trace_overhead(Report& report, const Figures& untraced, const Figures& traced);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Run `make` kSetupRepeats times, timing each, and keep the last result.
template <class Make>
auto repeated_setup(Make make, Samples& setup_s) -> decltype(make()) {
  decltype(make()) kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();  // the previous set-up is torn down before the next starts
    const auto t0 = Clock::now();
    kept = make();
    setup_s.add(seconds_since(t0));
  }
  return kept;
}

// --- layer probes (traced run) --------------------------------------------------

/// What the layer probes run on: the workload's primary trace, where it
/// runs, and how.
struct LayerInputs {
  std::string titb_path;
  const tir::titio::SharedTrace* trace = nullptr;
  const tir::exp::ClusterSetup* cluster = nullptr;
  tir::core::ReplayConfig config;
  tir::core::CalibrationRequest calibration;  ///< the workload's own request
};

/// Sweep figures of one mc_sweep (core.sweep_* metrics).
struct SweepFigures {
  Ratio busy;          ///< Σ replicate wall / (sweep wall × jobs)
  Ratio cpu_per_wall;  ///< process CPU / sweep wall
};

/// Run every layer probe on `inputs`, recording spans on `tracer`, and add
/// the titio/core/sim/smpi/msg/obs per-layer metrics to `report`.
/// `sweep` supplies the workload's own sweep figures; when null a small
/// probe sweep provides them.  Returns the sweep figures reported.
SweepFigures probe_layers(const LayerInputs& inputs, Tracer& tracer, Report& report,
                          const Options& options, const SweepFigures* sweep);

/// Traced-run epilogue: the host record and the spans file.
void finish_traced(const Tracer& tracer, Report& report, const Options& options,
                   const SweepFigures& sweep);

/// Run a short mc_sweep over `trace` and measure its sweep figures.
SweepFigures probe_sweep(const tir::titio::SharedTrace& trace,
                         const tir::platform::Platform& platform,
                         const tir::core::ReplayConfig& config, std::uint64_t seed, Tracer& tracer);

// --- workloads -------------------------------------------------------------------

int run_replay_stream(const Options& options);
int run_mc_contended(const Options& options);
int run_tird_mix(const Options& options);

/// Per-layer svc metrics from a short tird session (the tird-mix machinery
/// with a small fixed job plan); used by the other workloads' traced runs.
void probe_svc(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench
