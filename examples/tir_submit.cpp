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

}  // namespace

int main(int argc, char** argv) {
  using namespace tir;
  cli::JobFlags job;
  std::string endpoint;
  std::string op;
  bool json_output = false;
  bool verbose = false;
  svc::RetryPolicy policy;
  svc::JobRequest request;
  request.op = "predict";
  svc::ScenarioSpec base;

  cli::Args args(usage);
  args.option({"-connect"}, endpoint);
  for (const char* name : {"-ping", "-stats", "-flush", "-shutdown"}) {
    args.flag({name}, [&op, name] { op = name + 1; });
  }
  job.declare_replay(args, /*rate_list=*/true);
  job.declare_monte_carlo(args);
  args.option({"-watchdog"}, "a non-negative number of seconds",
              cli::number(base.watchdog_seconds, cli::non_negative));
  args.flag({"-metrics"}, request.metrics);
  args.option({"-calibrate"}, "classic, cache-aware or auto", [&](const std::string& v) {
    if (v != "classic" && v != "cache-aware" && v != "auto") return false;
    request.calibrate = true;
    request.calibration.procedure = v;
    return true;
  });
  args.option({"-truth"}, "bordereau or graphene", [&](const std::string& v) {
    if (v != "bordereau" && v != "graphene") return false;
    request.calibrate = true;
    request.calibration.truth =
        v == "bordereau" ? platform::bordereau_truth() : platform::graphene_truth();
    return true;
  });
  args.option({"-class"}, "a single letter A-H", [&](const std::string& v) {
    if (v.size() != 1 || v[0] < 'A' || v[0] > 'H') return false;
    request.calibration.instance_class = v[0];
    return true;
  });
  args.option({"-retries"}, "a positive integer", cli::number(policy.max_attempts, cli::positive));
  args.option({"-deadline"}, "a non-negative number of seconds",
              cli::number(policy.deadline_seconds, cli::non_negative));
  args.option({"-seed"}, "an unsigned integer", cli::number(policy.seed, cli::any));
  args.flag({"-json"}, json_output);
  args.flag({"-v"}, verbose);
  args.positional("TRACE", false, request.trace);
  if (!args.parse(argc, argv)) return cli::kUsageExit;
  if (endpoint.empty() || (op.empty() && request.trace.empty())) {
    return args.fail("needs -connect and a TRACE or an op");
  }
  if (job.mc_seeds > 0 && job.perturb.empty()) return args.fail("-mc-seeds needs a -perturb spec");
  if (op.empty() && job.rates.empty() && !request.calibrate) {
    // The daemon refuses a scenario without rates in a job without a
    // calibration; say so here instead of after a round trip.
    return args.fail("a prediction needs -rate or -calibrate");
  }
  request.nprocs = job.np;
  request.platform = job.platform;
  request.perturb = job.perturb;
  request.mc_replicates = job.mc_seeds;
  base.backend = job.backend;
  base.contention = job.contention;

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

    if (job.rates.empty()) {
      base.label = request.calibrate ? "calibrated" : "default";
      request.scenarios.push_back(base);
    } else {
      for (const double rate : job.rates) {
        svc::ScenarioSpec spec = base;
        spec.rates = {rate};
        spec.label = cli::rate_label(rate);
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
      return result.transport ? 11 : cli::exit_status(error_code_from_name(result.error_code));
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
    return failures == 0 ? 0 : cli::exit_status(error_code_from_name(first_code));
  } catch (const Error& e) {
    // Anything escaping here is transport-shaped (dial failure, endpoint
    // config): the daemon never saw the job.
    std::fprintf(stderr, "tir-submit: transport: [%s] %s\n", e.code_name(), e.what());
    return 11;
  }
}
