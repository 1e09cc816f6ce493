// Workload mc-contended: a what-if grid.  core::mc_sweep runs, again and
// again for the length of the timed section, over one SharedTrace decoded
// in set-up: LU B-64 acquired on graphene, replayed under 2 scenarios (SMPI,
// MSG) x kReplicates sampled platforms (lognormal link bandwidth, uniform
// host speed) with MaxMin sharing and min(4, nproc) workers.  The max-min
// solver does a large share of each replicate while decode is paid once, so
// this workload moves with the solver and stays flat under a decode change.
#include <memory>

#include "common.hpp"
#include "core/mc_sweep.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace perfbench {

using namespace tir;

namespace {

constexpr int kReplicates = 8;
constexpr int kIterations = 3;

struct McSetup {
  exp::ClusterSetup cluster = exp::graphene_setup();
  std::string path;
  Acquisition acquisition;
  core::CalibrationRequest calibration;
  std::unique_ptr<titio::SharedTrace> trace;
  std::vector<core::McScenario> scenarios;
  std::string reference_json;  ///< mc_report_json of the same grid at jobs=1
};

std::unique_ptr<McSetup> make_setup(const Options& options) {
  auto setup = std::make_unique<McSetup>();
  setup->path = (options.work / "lu-B64-graphene.titb").string();
  setup->acquisition =
      acquire_lu(setup->cluster, 'B', 64, kIterations, derive_seed(options.seed, 1));
  titio::write_binary_trace(setup->acquisition.trace, setup->path);
  setup->trace = std::make_unique<titio::SharedTrace>(titio::SharedTrace::load(setup->path));
  setup->calibration = calibration_request(setup->cluster, 'B', 64, derive_seed(options.seed, 2));
  const double rate = core::calibrate_rate(setup->cluster.platform, setup->calibration);

  const auto base = std::make_shared<const platform::Platform>(setup->cluster.platform);
  const std::string spec = "seed=" + std::to_string(derive_seed(options.seed, 3) % 1000000007) +
                           ";link.bw=lognormal:0.1;host.speed=uniform:0.05";
  for (const core::Backend backend : {core::Backend::Smpi, core::Backend::Msg}) {
    core::McScenario sc;
    sc.model = platform::PlatformModel(base, platform::PerturbationSpec::parse(spec));
    sc.config.rates = {rate};
    sc.config.sharing = sim::Sharing::MaxMin;
    sc.backend = backend;
    sc.label = core::backend_name(backend);
    setup->scenarios.push_back(std::move(sc));
  }
  // Warm-up: one unperturbed replay per back-end.
  for (const core::McScenario& sc : setup->scenarios) {
    (void)core::replay(sc.backend, *setup->trace, setup->cluster.platform, sc.config);
  }
  return setup;
}

core::McOptions grid_options(int jobs) {
  core::McOptions options;
  options.replicates = kReplicates;
  options.jobs = jobs;
  return options;
}

Figures timed_section(const McSetup& setup, double seconds, Tracer& tracer, Report& report,
                      SweepFigures& sweep) {
  Figures f(2 * kReplicates);  // one window per sweep
  const int jobs = bench_jobs();
  double busy = 0.0;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    const Tracer::Scope span(tracer, "core.mc_sweep");
    const auto s0 = Clock::now();
    const core::McReport mc = core::mc_sweep(*setup.trace, setup.scenarios, grid_options(jobs));
    const double sweep_wall = seconds_since(s0);
    const double t_done = seconds_since(t0);
    const double cpu_done = process_cpu_seconds() - cpu0;
    const bool same = core::mc_report_json(mc) == setup.reference_json;
    report.check("mc report equals the jobs=1 reference", same);
    for (const core::McScenarioReport& sr : mc.scenarios) {
      for (const core::McReplicate& rep : sr.replicates) {
        const bool ok = same && rep.outcome.ok;
        report.attempts.record(ok);
        const core::ReplayResult& r = rep.outcome.result;
        busy += r.wall_clock_seconds;
        f.latency_ms.add(1e3 * r.wall_clock_seconds);
        if (!ok) continue;
        f.complete(t_done, cpu_done, r.actions_replayed);
        f.error_pct.add(error_pct(r.simulated_time, setup.acquisition.reference_seconds));
      }
    }
    sweep.busy.denominator += sweep_wall * jobs;
  }
  f.wall_s = seconds_since(t0);
  f.cpu_s = process_cpu_seconds() - cpu0;
  sweep.busy.numerator += busy;
  sweep.cpu_per_wall = {f.cpu_s, f.wall_s};
  return f;
}

}  // namespace

int run_mc_contended(const Options& options) {
  Report report;
  Tracer tracer("mc-contended/" + std::to_string(options.seed));
  Samples setup_s;
  const std::unique_ptr<McSetup> setup =
      repeated_setup([&] { return make_setup(options); }, setup_s);

  // Reference: the same grid on one thread, rendered as the mc report.
  setup->reference_json =
      core::mc_report_json(core::mc_sweep(*setup->trace, setup->scenarios, grid_options(1)));
  report.input("lu-B64-graphene", setup->trace->content_hash(), setup->trace->total_actions());
  report.input("perturbation:" + setup->scenarios.front().model.spec().canonical(),
               setup->scenarios.front().model.spec().hash(), 0);

  SweepFigures sweep;
  if (!options.trace) {
    report_end_to_end(report, timed_section(*setup, options.seconds, tracer, report, sweep),
                      setup_s);
    report.detail("host", host_json(sweep.cpu_per_wall.value()));
  } else {
    SweepFigures untraced_sweep;
    const Figures untraced =
        timed_section(*setup, options.seconds / 2, tracer, report, untraced_sweep);
    tracer.enable(true);
    const Figures traced = timed_section(*setup, options.seconds / 2, tracer, report, sweep);
    report_trace_overhead(report, untraced, traced);
    const core::McScenario& smpi = setup->scenarios.front();
    LayerInputs layers{setup->path, setup->trace.get(), &setup->cluster, smpi.config,
                       setup->calibration};
    probe_layers(layers, tracer, report, options, &sweep);
    probe_svc(options, tracer, report);
    finish_traced(tracer, report, options, sweep);
  }
  report.print(options);
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
