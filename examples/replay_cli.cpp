// tir_replay: the command-line replay tool, mirroring the paper's §3.3
// user view ("smpirun ... ./smpi_replay trace_description"):
//
//   $ ./replay_cli -np 8 -platform platform.txt -rate 2.5e9
//                [-backend smpi|msg] [-contention] [-jobs N] trace.manifest
//
// The manifest lists one trace file per process, or a single shared file
// (then -np is required), exactly as described in the paper.  This example
// also doubles as the "bring your own trace" entry point: any tool that
// writes the paper's action format can feed it.
//
// -rate takes a comma-separated list of calibrated rates; more than one
// turns the invocation into a core::sweep (one scenario per rate over the
// shared trace, -jobs workers), reporting each scenario's prediction.
//
// -perturb runs the Monte Carlo variability engine instead of a point
// prediction: the platform becomes a platform::PlatformModel sampled at
// -mc-seeds replicate seeds (core::plan_job expands the grid, core::mc_fold
// folds it), the report shows quantiles,
// -tornado adds the per-parameter sensitivity ranking, and -mc-report
// writes the JSON report (docs/variability.md) to a file or '-' (stdout).
//
// Flags are parsed strictly by the shared front end (cli_args.hpp): a typo
// prints the usage and exits 2, never replays the wrong scenario.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "cli_args.hpp"
#include "core/job.hpp"
#include "platform/model.hpp"
#include "tit/trace.hpp"
#include "titio/shared.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-np N] [-platform FILE] [-rate INSTR_PER_S[,INSTR_PER_S...]]\n"
               "          [-backend smpi|msg] [-contention] [-jobs N]\n"
               "          [-perturb SPEC] [-mc-seeds N] [-tornado] [-mc-report FILE|-]\n"
               "          TRACE_MANIFEST\n"
               "\n"
               "A comma-separated -rate list replays one scenario per rate over the\n"
               "shared trace on -jobs workers (default: hardware concurrency).\n"
               "\n"
               "-perturb SPEC samples the platform from seeded distributions instead\n"
               "of replaying it verbatim (grammar: seed=S;link.bw=KIND:PARAM;\n"
               "link.lat=KIND:PARAM;host.speed=KIND:PARAM with KIND uniform|normal|\n"
               "lognormal; docs/variability.md).  -mc-seeds N (default 8) sets the\n"
               "replicates per scenario, -tornado adds the one-at-a-time parameter\n"
               "sensitivity ranking, -mc-report writes the JSON report.\n"
               "\n"
               "Exit status: 0 success, 2 usage, 10+code on failure where code is the\n"
               "tir::ErrorCode of the first failed scenario (10 generic, 11 parse,\n"
               "12 config, 13 malformed-trace, 14 corrupt-frame, 15 simulation,\n"
               "16 deadlock, 17 watchdog, 18 internal); the code name is printed on\n"
               "stderr so scripted clients can dispatch on either.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tir;
  cli::JobFlags job;
  job.rates = {1e9};
  int jobs = 0;  // 0 = hardware concurrency
  bool tornado = false;
  std::string mc_report_path;
  std::string manifest;

  cli::Args args(usage);
  job.declare_replay(args, /*rate_list=*/true);
  job.declare_monte_carlo(args);
  args.option({"-jobs"}, "an integer", cli::number(jobs, cli::any));
  args.flag({"-tornado"}, tornado);
  args.option({"-mc-report"}, mc_report_path);
  args.positional("TRACE_MANIFEST", true, manifest);
  if (!args.parse(argc, argv)) return cli::kUsageExit;
  if ((tornado || job.mc_seeds > 0 || !mc_report_path.empty()) && job.perturb.empty()) {
    return args.fail("-tornado/-mc-seeds/-mc-report need a -perturb spec");
  }
  const int mc_seeds = job.mc_seeds > 0 ? job.mc_seeds : 8;

  try {
    const titio::SharedTrace trace = titio::SharedTrace::load(manifest, {}, job.np);
    tit::validate(trace.trace());
    const auto platform =
        std::make_shared<const platform::Platform>(job.make_platform(trace.nprocs(), "tir_replay"));

    const tit::TraceStats ts = tit::stats(trace.trace());
    std::printf("trace            : %s (%d processes, %zu actions)\n", manifest.c_str(),
                trace.nprocs(), ts.actions);
    std::printf("backend          : %s\n", job.describe().c_str());

    std::optional<platform::PerturbationSpec> perturb;
    if (!job.perturb.empty()) perturb = platform::PerturbationSpec::parse(job.perturb);
    core::McOptions mc_options;
    mc_options.replicates = mc_seeds;
    mc_options.tornado = tornado;
    const core::JobPlan plan = core::plan_job(job.scenarios(""), platform, trace.nprocs(),
                                              /*calibrated_rate=*/0.0, perturb, mc_options);
    core::SweepOptions options;
    options.jobs = jobs;
    const std::vector<core::ScenarioOutcome> outcomes =
        core::sweep(trace, plan.grid.cells, options);

    // Every failed scenario is named on stderr; the first sets the exit status.
    std::optional<ErrorCode> first_failure;
    const auto report_failure = [&](const core::ScenarioOutcome& o) {
      std::fprintf(stderr, "tir_replay: %s: [%s] %s\n", o.label.c_str(),
                   error_code_name(o.error_code), o.error.c_str());
      if (!first_failure) first_failure = o.error_code;
    };

    if (perturb) {
      // Monte Carlo path: each scenario was a sampled platform family.
      const core::McReport report = core::mc_fold(plan.rows, plan.grid, outcomes);
      std::printf("perturbation     : %s (%d replicates)\n", perturb->canonical().c_str(),
                  mc_seeds);
      for (const core::McScenarioReport& sr : report.scenarios) {
        const stats::Summary& d = sr.simulated_time;
        std::printf("%-24s : median %.6f s  mean %.6f s  [p5 %.6f, p95 %.6f]  "
                    "ci95 [%.6f, %.6f]  n=%zu\n",
                    sr.label.c_str(), d.p50, d.mean, d.p5, d.p95, d.ci95_lo, d.ci95_hi, d.n);
        for (const core::McReplicate& rep : sr.replicates) {
          if (!rep.outcome.ok) report_failure(rep.outcome);
        }
        for (const core::TornadoEntry& bar : sr.tornado.entries) {
          std::printf("  tornado %-12s : swing %.6f s  [%.6f, %.6f]\n", bar.parameter.c_str(),
                      bar.swing, bar.metric.min, bar.metric.max);
        }
      }
      if (!mc_report_path.empty()) {
        const std::string json = core::mc_report_json(report);
        if (mc_report_path == "-") {
          std::printf("%s\n", json.c_str());
        } else {
          std::FILE* f = std::fopen(mc_report_path.c_str(), "w");
          if (f == nullptr) throw Error("cannot write mc report: " + mc_report_path);
          std::fputs(json.c_str(), f);
          std::fputc('\n', f);
          std::fclose(f);
        }
      }
    } else {
      for (const core::ScenarioOutcome& o : outcomes) {
        if (!o.ok) {
          report_failure(o);
        } else if (outcomes.size() == 1) {
          std::printf("simulated time   : %.6f s\n", o.result.simulated_time);
          std::printf("replay wall-clock: %.3f s (%.0f actions/s)\n", o.result.wall_clock_seconds,
                      ts.actions / (o.result.wall_clock_seconds > 0 ? o.result.wall_clock_seconds
                                                                   : 1e-9));
        } else {
          std::printf("%-24s : simulated %.6f s (wall %.3f s)\n", o.label.c_str(),
                      o.result.simulated_time, o.result.wall_clock_seconds);
        }
      }
    }
    return first_failure ? cli::exit_status(*first_failure) : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "tir_replay: [%s] %s\n", e.code_name(), e.what());
    return cli::exit_status(e.code());
  }
}
