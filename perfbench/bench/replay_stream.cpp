// Workload replay-stream: the replay_cli path, one prediction at a time on
// one thread.  Each prediction opens a TITB LU file and streams it through
// titio::Reader into core::replay (SMPI back-end, Uncontended sharing) on
// bordereau at the cache-aware rate calibrated in set-up.  Predictions
// alternate a wide trace (64 ranks, few iterations) and a long one (8 ranks,
// many iterations) of about the same replay cost, so the latency
// percentiles sit inside one band instead of on the gap between two.
#include <memory>

#include "common.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace perfbench {

using namespace tir;

namespace {

struct StreamInput {
  std::string name;
  std::string path;
  Acquisition acquisition;
  core::CalibrationRequest calibration;
  core::ReplayConfig config;
  core::ReplayResult reference;  ///< in-memory replay of the same trace
};

struct StreamSetup {
  exp::ClusterSetup cluster = exp::bordereau_setup();
  std::vector<StreamInput> inputs;
};

struct InstanceSpec {
  const char* name;
  int nprocs;
  int iterations;
};

constexpr InstanceSpec kInstances[] = {{"lu-B64-wide", 64, 3}, {"lu-B8-long", 8, 45}};
/// Completions per throughput window: five of each trace.
constexpr std::size_t kWindow = 10;

std::unique_ptr<StreamSetup> make_setup(const Options& options) {
  auto setup = std::make_unique<StreamSetup>();
  std::uint64_t index = 0;
  for (const InstanceSpec& spec : kInstances) {
    StreamInput in;
    in.name = spec.name;
    in.path = (options.work / (in.name + ".titb")).string();
    in.acquisition = acquire_lu(setup->cluster, 'B', spec.nprocs, spec.iterations,
                                derive_seed(options.seed, 1, index));
    titio::write_binary_trace(in.acquisition.trace, in.path);
    in.calibration =
        calibration_request(setup->cluster, 'B', spec.nprocs, derive_seed(options.seed, 2, index));
    in.config.rates = {core::calibrate_rate(setup->cluster.platform, in.calibration)};
    // Warm-up: one streamed replay per file.
    titio::Reader reader(in.path);
    (void)core::replay(core::Backend::Smpi, reader, setup->cluster.platform, in.config);
    setup->inputs.push_back(std::move(in));
    ++index;
  }
  return setup;
}

Figures timed_section(const StreamSetup& setup, double seconds, Tracer& tracer, Report& report) {
  Figures f(kWindow);
  std::vector<Samples> by_input(setup.inputs.size());
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; seconds_since(t0) < seconds; ++i) {
    const StreamInput& in = setup.inputs[i % setup.inputs.size()];
    const Tracer::Scope prediction(tracer, "prediction");
    const auto p0 = Clock::now();
    bool ok = false;
    core::ReplayResult result;
    try {
      std::unique_ptr<titio::Reader> reader;
      {
        const Tracer::Scope span(tracer, "titio.open");
        reader = std::make_unique<titio::Reader>(in.path);
      }
      const Tracer::Scope span(tracer, "core.replay");
      result = core::replay(core::Backend::Smpi, *reader, setup.cluster.platform, in.config);
      ok = same_prediction(result, in.reference);
    } catch (const Error& e) {
      std::fprintf(stderr, "perfbench: %s: %s\n", in.name.c_str(), e.what());
    }
    f.latency_ms.add(1e3 * seconds_since(p0));
    by_input[i % setup.inputs.size()].add(f.latency_ms.values.back());
    report.attempts.record(ok);
    report.check("stream equals in-memory replay", ok);
    if (!ok) continue;
    f.complete(seconds_since(t0), process_cpu_seconds() - cpu0, result.actions_replayed);
    f.error_pct.add(error_pct(result.simulated_time, in.acquisition.reference_seconds));
  }
  f.wall_s = seconds_since(t0);
  f.cpu_s = process_cpu_seconds() - cpu0;
  std::string p50 = "{";
  for (std::size_t k = 0; k < setup.inputs.size(); ++k) {
    if (by_input[k].count() == 0) continue;
    if (p50.size() > 1) p50 += ',';
    p50 += json_string(setup.inputs[k].name);
    p50 += ':';
    p50 += json_number(by_input[k].median());
  }
  report.detail("prediction_p50_ms_by_input", p50 + "}");
  return f;
}

}  // namespace

int run_replay_stream(const Options& options) {
  Report report;
  Tracer tracer("replay-stream/" + std::to_string(options.seed));
  Samples setup_s;
  const std::unique_ptr<StreamSetup> setup =
      repeated_setup([&] { return make_setup(options); }, setup_s);

  // References, outside the timed set-up: the in-memory replay of the trace
  // the acquisition produced, never read back from disk.
  for (StreamInput& in : setup->inputs) {
    in.reference = core::replay(core::Backend::Smpi, in.acquisition.trace, setup->cluster.platform,
                                in.config);
    titio::Reader reader(in.path);
    report.input(in.name, reader.content_hash(), reader.total_actions());
  }

  const StreamInput& primary = setup->inputs.front();
  const titio::SharedTrace shared(primary.acquisition.trace);
  if (!options.trace) {
    report_end_to_end(report, timed_section(*setup, options.seconds, tracer, report), setup_s);
    const SweepFigures sweep = probe_sweep(shared, setup->cluster.platform, primary.config,
                                           derive_seed(options.seed, 60), tracer);
    report.detail("host", host_json(sweep.cpu_per_wall.value()));
  } else {
    const Figures untraced = timed_section(*setup, options.seconds / 2, tracer, report);
    tracer.enable(true);
    const Figures traced = timed_section(*setup, options.seconds / 2, tracer, report);
    report_trace_overhead(report, untraced, traced);
    LayerInputs layers{primary.path, &shared, &setup->cluster, primary.config, primary.calibration};
    const SweepFigures sweep = probe_layers(layers, tracer, report, options, nullptr);
    probe_svc(options, tracer, report);
    finish_traced(tracer, report, options, sweep);
  }
  report.print(options);
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
