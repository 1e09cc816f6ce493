// tir-submit: submit one prediction job to a running tird and print the
// streamed results (docs/service.md).
//
//   $ ./tir-submit -connect unix:/tmp/tird.sock -rate 1e9 trace.titb
//   $ ./tir-submit -connect tcp:127.0.0.1:7410 -platform cluster.txt
//                  -rate 2.5e9,3e9 -backend smpi -metrics trace.manifest
//   $ ./tir-submit -connect ... -calibrate cache-aware -truth graphene trace.titb
//   $ ./tir-submit -connect ... -ping | -stats | -flush | -shutdown
//
// Exit status mirrors replay_cli's scripted-client contract: 0 success,
// 2 usage, 3 rejected (backpressure — retry after the printed hint),
// 11 transport failure (could not reach the daemon / connection died before
// a server verdict; note 11 also happens to be 10+parse-error for job
// failures — scripts needing the distinction read stderr), 10+code on a
// failed job or scenario.
#include <cstdio>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "cli_args.hpp"
#include "platform/clusters.hpp"
#include "platform/model.hpp"
#include "svc/client.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -connect ENDPOINT [-np N] [-platform FILE]\n"
               "          [-rate R[,R...]] [-backend smpi|msg] [-contention]\n"
               "          [-watchdog SECONDS] [-metrics]\n"
               "          [-calibrate classic|cache-aware|auto] [-truth bordereau|graphene]\n"
               "          [-class A-H] [-retries N] [-deadline SECONDS] [-seed S]\n"
               "          [-perturb SPEC] [-mc-seeds N] [-json] [-v] TRACE\n"
               "       %s -connect ENDPOINT -ping|-stats|-flush|-shutdown\n"
               "\n"
               "Each -rate becomes one scenario; with -calibrate and no -rate the\n"
               "daemon's calibrated rate is used (and cached server-side).  -json\n"
               "echoes the raw response lines instead of the human summary.\n"
               "\n"
               "-perturb SPEC samples the platform server-side from seeded\n"
               "distributions (grammar: seed=S;link.bw=KIND:PARAM;link.lat=KIND:PARAM;\n"
               "host.speed=KIND:PARAM, KIND uniform|normal|lognormal) and -mc-seeds N\n"
               "expands every scenario over N replicate seeds; the done line carries\n"
               "the aggregate quantiles as an \"mc\" report (docs/variability.md),\n"
               "printed by -json or summarized per scenario group.\n"
               "\n"
               "Resilience: -retries N (default 5) retries rejected/transport-failed\n"
               "submits with seeded decorrelated-jitter backoff (-seed, default 1),\n"
               "honoring the daemon's retry_after_ms hint; -deadline bounds the whole\n"
               "submit and is enforced server-side between scenarios; retried jobs\n"
               "carry an idempotency key so a completed job is answered from the\n"
               "daemon's result cache bit-identically.  -v prints the retry schedule\n"
               "actually used.\n"
               "\n"
               "Exit status: 0 success, 2 usage, 3 rejected (queue full; retry after\n"
               "the printed retry_after_ms), 11 transport failure (daemon unreachable\n"
               "or connection died before a verdict), 10+code on failure (see\n"
               "replay_cli; 10+9=19 cancelled = deadline expired).\n",
               argv0, argv0);
}

int exit_status(const std::string& code_name) {
  for (int c = 0; c <= static_cast<int>(tir::kLastErrorCode); ++c) {
    if (code_name == tir::error_code_name(static_cast<tir::ErrorCode>(c))) return 10 + c;
  }
  return 10;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tir;
  std::string endpoint;
  std::string op;
  bool json_output = false;
  bool verbose = false;
  svc::RetryPolicy policy;
  svc::JobRequest request;
  request.op = "predict";
  std::vector<double> rates;
  svc::ScenarioSpec base;

  // Strict parsing: unknown flags, flags missing their value and malformed
  // numbers reject with usage + exit 2 (tests/cli/cli_args_test.cpp) — a
  // typo must never submit the wrong job to a live daemon.
  const auto need = [&](int i) { return i + 1 < argc; };
  const auto reject = [&](const char* what, const char* got) {
    std::fprintf(stderr, "%s: %s '%s'\n", argv[0], what, got);
    usage(argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-connect" && need(i)) {
      endpoint = argv[++i];
    } else if (arg == "-ping" || arg == "-stats" || arg == "-flush" || arg == "-shutdown") {
      op = arg.substr(1);
    } else if (arg == "-np" && need(i)) {
      if (!cli::parse_int(argv[++i], request.nprocs) || request.nprocs <= 0) {
        return reject("-np wants a positive integer, got", argv[i]);
      }
    } else if (arg == "-platform" && need(i)) {
      request.platform = argv[++i];
    } else if (arg == "-rate" && need(i)) {
      if (!cli::parse_doubles(argv[++i], rates)) {
        return reject("-rate wants a comma-separated number list, got", argv[i]);
      }
    } else if (arg == "-backend" && need(i)) {
      const std::string backend = argv[++i];
      if (backend == "msg") {
        base.backend = core::Backend::Msg;
      } else if (backend == "smpi") {
        base.backend = core::Backend::Smpi;
      } else {
        return reject("unknown backend (expected smpi or msg)", backend.c_str());
      }
    } else if (arg == "-contention") {
      base.contention = true;
    } else if (arg == "-watchdog" && need(i)) {
      if (!cli::parse_double(argv[++i], base.watchdog_seconds) || base.watchdog_seconds < 0) {
        return reject("-watchdog wants a non-negative number of seconds, got", argv[i]);
      }
    } else if (arg == "-metrics") {
      request.metrics = true;
    } else if (arg == "-calibrate" && need(i)) {
      const std::string procedure = argv[++i];
      if (procedure != "classic" && procedure != "cache-aware" && procedure != "auto") {
        return reject("unknown calibration procedure", procedure.c_str());
      }
      request.calibrate = true;
      request.calibration.procedure = procedure;
    } else if (arg == "-truth" && need(i)) {
      const std::string name = argv[++i];
      if (name != "bordereau" && name != "graphene") {
        return reject("unknown truth machine (expected bordereau or graphene)", name.c_str());
      }
      request.calibrate = true;
      request.calibration.truth = name == "bordereau" ? platform::bordereau_truth()
                                                      : platform::graphene_truth();
    } else if (arg == "-class" && need(i)) {
      const std::string cls = argv[++i];
      if (cls.size() != 1 || cls[0] < 'A' || cls[0] > 'H') {
        return reject("-class wants a single letter A-H, got", cls.c_str());
      }
      request.calibration.instance_class = cls[0];
    } else if (arg == "-retries" && need(i)) {
      if (!cli::parse_int(argv[++i], policy.max_attempts) || policy.max_attempts <= 0) {
        return reject("-retries wants a positive integer, got", argv[i]);
      }
    } else if (arg == "-deadline" && need(i)) {
      if (!cli::parse_double(argv[++i], policy.deadline_seconds) || policy.deadline_seconds < 0) {
        return reject("-deadline wants a non-negative number of seconds, got", argv[i]);
      }
    } else if (arg == "-seed" && need(i)) {
      if (!cli::parse_uint64(argv[++i], policy.seed)) {
        return reject("-seed wants an unsigned integer, got", argv[i]);
      }
    } else if (arg == "-perturb" && need(i)) {
      request.perturb = argv[++i];
      try {
        (void)platform::PerturbationSpec::parse(request.perturb);
      } catch (const Error& e) {
        return reject(e.what(), request.perturb.c_str());
      }
    } else if (arg == "-mc-seeds" && need(i)) {
      if (!cli::parse_int(argv[++i], request.mc_replicates) || request.mc_replicates <= 0) {
        return reject("-mc-seeds wants a positive integer, got", argv[i]);
      }
    } else if (arg == "-json") {
      json_output = true;
    } else if (arg == "-v") {
      verbose = true;
    } else if (!arg.empty() && arg[0] != '-') {
      if (!request.trace.empty()) {
        return reject("unexpected extra argument", arg.c_str());
      }
      request.trace = arg;
    } else {
      return reject("unknown or incomplete option", arg.c_str());
    }
  }
  if (endpoint.empty() || (op.empty() && request.trace.empty())) {
    usage(argv[0]);
    return 2;
  }
  if (request.mc_replicates > 0 && request.perturb.empty()) {
    std::fprintf(stderr, "%s: -mc-seeds needs a -perturb spec\n", argv[0]);
    usage(argv[0]);
    return 2;
  }
  if (op.empty() && rates.empty() && !request.calibrate) {
    // The daemon refuses a scenario without rates in a job without a
    // calibration; say so here instead of after a round trip.
    std::fprintf(stderr, "%s: a prediction needs -rate or -calibrate\n", argv[0]);
    usage(argv[0]);
    return 2;
  }

  try {
    if (!op.empty()) {
      svc::Client client(endpoint);
      if (op == "ping") {
        const bool alive = client.ping();
        std::printf("%s\n", alive ? "pong" : "no answer");
        return alive ? 0 : 1;
      }
      if (op == "stats") {
        std::printf("%s\n", client.stats().dump().c_str());
        return 0;
      }
      if (op == "flush") return client.flush() ? 0 : 1;
      return client.shutdown_server() ? 0 : 1;
    }

    if (rates.empty()) {
      base.label = request.calibrate ? "calibrated" : "default";
      request.scenarios.push_back(base);
    } else {
      for (const double rate : rates) {
        svc::ScenarioSpec spec = base;
        spec.rates = {rate};
        char label[64];
        std::snprintf(label, sizeof label, "rate=%g", rate);
        spec.label = label;
        request.scenarios.push_back(std::move(spec));
      }
    }
    if (request.calibrate && request.calibration.truth.rate_in_cache <= 0) {
      // A calibration needs machine truth; default to the paper's graphene.
      request.calibration.truth = platform::graphene_truth();
    }

    std::vector<svc::RetryEvent> schedule;
    const svc::JobResult result =
        svc::submit_with_retry(endpoint, request, policy, nullptr, &schedule);

    if (verbose) {
      std::fprintf(stderr, "tir-submit: %d attempt%s\n", result.attempts,
                   result.attempts == 1 ? "" : "s");
      for (const svc::RetryEvent& event : schedule) {
        std::fprintf(stderr, "tir-submit: attempt %d %s -> backoff %.1f ms\n", event.attempt,
                     event.reason.c_str(), event.backoff_ms);
      }
    }

    if (json_output) {
      if (!result.started.is_null()) std::printf("%s\n", result.started.dump().c_str());
      for (const svc::Json& s : result.scenarios) std::printf("%s\n", s.dump().c_str());
      if (!result.epilogue.is_null()) std::printf("%s\n", result.epilogue.dump().c_str());
    }

    if (result.rejected) {
      std::fprintf(stderr, "tir-submit: rejected (queue full), retry after %d ms\n",
                   result.retry_after_ms);
      return 3;
    }
    if (result.failed) {
      std::fprintf(stderr, "tir-submit: %s[%s] %s\n", result.transport ? "transport: " : "",
                   result.error_code.c_str(), result.error.c_str());
      // Transport failures never got a server verdict: distinct exit code so
      // scripts can retry the whole submit instead of blaming the job.
      return result.transport ? 11 : exit_status(result.error_code);
    }

    int failures = 0;
    std::string first_code;
    for (const svc::Json& s : result.scenarios) {
      const std::string label = s.str_or("label", "?");
      if (s.bool_or("ok", false)) {
        if (!json_output) {
          std::printf("%-24s : simulated %.6f s (wall %.3f s)\n", label.c_str(),
                      s.num_or("simulated_time", 0.0), s.num_or("wall_clock_seconds", 0.0));
        }
      } else {
        std::fprintf(stderr, "tir-submit: %s: [%s] %s\n", label.c_str(),
                     s.str_or("error_code", "?").c_str(), s.str_or("error", "").c_str());
        if (failures == 0) first_code = s.str_or("error_code", "generic");
        ++failures;
      }
    }
    if (!json_output) {
      // A Monte Carlo job's done line carries the aggregate per scenario
      // group; summarize it like replay_cli's -perturb output.
      const svc::Json mc = result.epilogue.get("mc");
      if (mc.is_object()) {
        const svc::Json groups = mc.get("scenarios");
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const svc::Json& group = groups.at(g);
          std::printf("%-24s : median %.6f s  mean %.6f s  [p5 %.6f, p95 %.6f]  "
                      "ci95 [%.6f, %.6f]  n=%.0f\n",
                      group.str_or("label", "?").c_str(), group.num_or("p50", 0.0),
                      group.num_or("mean", 0.0), group.num_or("p5", 0.0),
                      group.num_or("p95", 0.0), group.num_or("ci95_lo", 0.0),
                      group.num_or("ci95_hi", 0.0), group.num_or("n", 0.0));
        }
      }
      std::printf("job %llu: %s cache, queue %.3f ms, decode %.3f ms, "
                  "calibrate %.3f ms, replay %.3f ms\n",
                  static_cast<unsigned long long>(result.id),
                  result.trace_cache_hit() ? "hit" : "miss",
                  1e3 * result.epilogue.num_or("queue_wait_seconds", 0.0),
                  1e3 * result.epilogue.num_or("decode_seconds", 0.0),
                  1e3 * result.epilogue.num_or("calibrate_seconds", 0.0),
                  1e3 * result.epilogue.num_or("replay_seconds", 0.0));
    }
    return failures == 0 ? 0 : exit_status(first_code);
  } catch (const Error& e) {
    // Anything escaping here is transport-shaped (dial failure, endpoint
    // config): the daemon never saw the job.
    std::fprintf(stderr, "tir-submit: transport: [%s] %s\n", e.code_name(), e.what());
    return 11;
  }
}
