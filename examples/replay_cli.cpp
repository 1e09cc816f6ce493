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
// -mc-seeds replicate seeds (core::mc_sweep), the report shows quantiles,
// -tornado adds the per-parameter sensitivity ranking, and -mc-report
// writes the JSON report (docs/variability.md) to a file or '-' (stdout).
//
// Argument parsing is strict: unknown flags, malformed or missing values
// and stray positionals print the usage and exit 2 — a typo must never
// silently replay the wrong scenario (tests/cli/cli_args_test.cpp).
#include <cstdio>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "cli_args.hpp"
#include "core/mc_sweep.hpp"
#include "core/sweep.hpp"
#include "platform/clusters.hpp"
#include "platform/model.hpp"
#include "platform/parse.hpp"
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

/// Scripted-client contract: a failure exits with 10 + the ErrorCode value,
/// so exit statuses distinguish a corrupt trace from a deadlock from a
/// watchdog kill without parsing stderr.
int exit_status(tir::ErrorCode code) { return 10 + static_cast<int>(code); }

}  // namespace

int main(int argc, char** argv) {
  using namespace tir;
  int np = -1;
  int jobs = 0;  // 0 = hardware concurrency
  int mc_seeds = 8;
  std::string platform_file;
  std::string manifest;
  std::string perturb_spec;
  std::string mc_report_path;
  std::vector<double> rates = {1e9};
  bool use_msg = false;
  bool contention = false;
  bool tornado = false;
  bool mc_seeds_set = false;

  // Strict parsing: every branch either fully consumes a wellformed value
  // or rejects with usage + exit 2.  `need` fails flags missing their value.
  const auto need = [&](int i) { return i + 1 < argc; };
  const auto reject = [&](const char* what, const char* got) {
    std::fprintf(stderr, "%s: %s '%s'\n", argv[0], what, got);
    usage(argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-np" && need(i)) {
      if (!cli::parse_int(argv[++i], np) || np <= 0) {
        return reject("-np wants a positive integer, got", argv[i]);
      }
    } else if (arg == "-platform" && need(i)) {
      platform_file = argv[++i];
    } else if (arg == "-rate" && need(i)) {
      if (!cli::parse_doubles(argv[++i], rates)) {
        return reject("-rate wants a comma-separated number list, got", argv[i]);
      }
    } else if (arg == "-backend" && need(i)) {
      const std::string backend = argv[++i];
      if (backend == "msg") {
        use_msg = true;
      } else if (backend == "smpi") {
        use_msg = false;
      } else {
        return reject("unknown backend (expected smpi or msg)", backend.c_str());
      }
    } else if (arg == "-contention") {
      contention = true;
    } else if (arg == "-jobs" && need(i)) {
      if (!cli::parse_int(argv[++i], jobs)) {
        return reject("-jobs wants an integer, got", argv[i]);
      }
    } else if (arg == "-perturb" && need(i)) {
      perturb_spec = argv[++i];
      try {
        (void)platform::PerturbationSpec::parse(perturb_spec);
      } catch (const Error& e) {
        return reject(e.what(), perturb_spec.c_str());
      }
    } else if (arg == "-mc-seeds" && need(i)) {
      if (!cli::parse_int(argv[++i], mc_seeds) || mc_seeds <= 0) {
        return reject("-mc-seeds wants a positive integer, got", argv[i]);
      }
      mc_seeds_set = true;
    } else if (arg == "-tornado") {
      tornado = true;
    } else if (arg == "-mc-report" && need(i)) {
      mc_report_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      if (!manifest.empty()) {
        return reject("unexpected extra argument", arg.c_str());
      }
      manifest = arg;
    } else {
      return reject("unknown or incomplete option", arg.c_str());
    }
  }
  if (manifest.empty()) {
    usage(argv[0]);
    return 2;
  }
  if ((tornado || mc_seeds_set || !mc_report_path.empty()) && perturb_spec.empty()) {
    std::fprintf(stderr, "%s: -tornado/-mc-seeds/-mc-report need a -perturb spec\n", argv[0]);
    usage(argv[0]);
    return 2;
  }

  try {
    const titio::SharedTrace trace = titio::SharedTrace::load(manifest, {}, np);
    tit::validate(trace.trace());

    auto owned = std::make_shared<platform::Platform>();
    platform::Platform* const mutable_platform = owned.get();
    const std::shared_ptr<const platform::Platform> platform = owned;
    if (platform_file.empty()) {
      // Default platform: one gigabit node per rank.
      platform::ClusterSpec spec;
      spec.prefix = "node";
      spec.nodes = trace.nprocs();
      spec.core_speed = rates.front();
      spec.link_bandwidth = 1.25e8;
      spec.link_latency = 3e-5;
      platform::build_flat_cluster(*mutable_platform, spec);
      std::fprintf(stderr, "[tir_replay] no -platform given: using a default %d-node 1GbE cluster\n",
                   trace.nprocs());
    } else {
      *mutable_platform = platform::load_platform(platform_file);
    }

    const core::Backend backend = use_msg ? core::Backend::Msg : core::Backend::Smpi;
    const tit::TraceStats ts = tit::stats(trace.trace());
    std::printf("trace            : %s (%d processes, %zu actions)\n", manifest.c_str(),
                trace.nprocs(), ts.actions);
    std::printf("backend          : %s%s\n", use_msg ? "msg (old)" : "smpi (new)",
                contention ? " + contention" : "");

    // --- Monte Carlo path: -perturb turns the run into an mc_sweep ---------
    if (!perturb_spec.empty()) {
      const platform::PerturbationSpec spec = platform::PerturbationSpec::parse(perturb_spec);
      std::vector<core::McScenario> scenarios;
      for (const double rate : rates) {
        core::McScenario sc;
        sc.model = platform::PlatformModel(platform, spec);
        sc.config.rates = {rate};
        sc.config.sharing = contention ? sim::Sharing::MaxMin : sim::Sharing::Uncontended;
        sc.backend = backend;
        char label[64];
        std::snprintf(label, sizeof label, "rate=%g", rate);
        sc.label = label;
        scenarios.push_back(std::move(sc));
      }
      core::McOptions options;
      options.replicates = mc_seeds;
      options.jobs = jobs;
      options.tornado = tornado;
      const core::McReport report = core::mc_sweep(trace, scenarios, options);

      std::printf("perturbation     : %s (%d replicates)\n", spec.canonical().c_str(),
                  mc_seeds);
      int failures = 0;
      ErrorCode first_failure = ErrorCode::Generic;
      for (const core::McScenarioReport& sr : report.scenarios) {
        const obs::DistributionSummary& d = sr.simulated_time;
        std::printf("%-24s : median %.6f s  mean %.6f s  [p5 %.6f, p95 %.6f]  "
                    "ci95 [%.6f, %.6f]  n=%zu\n",
                    sr.label.c_str(), d.p50, d.mean, d.p5, d.p95, d.ci95_lo, d.ci95_hi, d.n);
        for (const core::McReplicate& rep : sr.replicates) {
          if (rep.outcome.ok) continue;
          std::fprintf(stderr, "tir_replay: %s: [%s] %s\n", rep.outcome.label.c_str(),
                       error_code_name(rep.outcome.error_code), rep.outcome.error.c_str());
          if (failures == 0) first_failure = rep.outcome.error_code;
          ++failures;
        }
        for (const obs::TornadoEntry& bar : sr.tornado.entries) {
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
      return failures == 0 ? 0 : exit_status(first_failure);
    }

    std::vector<core::Scenario> scenarios;
    for (const double rate : rates) {
      core::Scenario sc;
      sc.platform = platform;
      sc.config.rates = {rate};
      sc.config.sharing = contention ? sim::Sharing::MaxMin : sim::Sharing::Uncontended;
      sc.backend = backend;
      char label[64];
      std::snprintf(label, sizeof label, "rate=%g", rate);
      sc.label = label;
      scenarios.push_back(std::move(sc));
    }

    core::SweepOptions options;
    options.jobs = jobs;
    const std::vector<core::ScenarioOutcome> outcomes = core::sweep(trace, scenarios, options);

    int failures = 0;
    ErrorCode first_failure = ErrorCode::Generic;
    for (const core::ScenarioOutcome& o : outcomes) {
      if (!o.ok) {
        std::fprintf(stderr, "tir_replay: %s: [%s] %s\n", o.label.c_str(),
                     error_code_name(o.error_code), o.error.c_str());
        if (failures == 0) first_failure = o.error_code;
        ++failures;
        continue;
      }
      if (outcomes.size() == 1) {
        std::printf("simulated time   : %.6f s\n", o.result.simulated_time);
        std::printf("replay wall-clock: %.3f s (%.0f actions/s)\n", o.result.wall_clock_seconds,
                    ts.actions /
                        (o.result.wall_clock_seconds > 0 ? o.result.wall_clock_seconds : 1e-9));
      } else {
        std::printf("%-24s : simulated %.6f s (wall %.3f s)\n", o.label.c_str(),
                    o.result.simulated_time, o.result.wall_clock_seconds);
      }
    }
    return failures == 0 ? 0 : exit_status(first_failure);
  } catch (const Error& e) {
    std::fprintf(stderr, "tir_replay: [%s] %s\n", e.code_name(), e.what());
    return exit_status(e.code());
  }
}
