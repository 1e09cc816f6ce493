// tird: the time-independent-replay prediction daemon (docs/service.md).
//
//   $ ./tird -listen unix:/tmp/tird.sock [-workers N] [-queue N]
//            [-cache-mb MB] [-retry-after-ms MS]
//
// Serves newline-delimited JSON prediction jobs (src/svc) until SIGTERM or
// SIGINT, then *drains*: every job already admitted runs to completion and
// streams its results before the process exits.  The {"op":"shutdown"} op
// triggers the same drain from the wire.
//
// Signals are handled on a dedicated sigwait thread — no async-signal-unsafe
// work ever runs in handler context.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "base/error.hpp"
#include "base/fault.hpp"
#include "cli_args.hpp"
#include "svc/server.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-listen ENDPOINT] [-workers N] [-queue N] [-cache-mb MB]\n"
               "          [-retry-after-ms MS] [-read-timeout-ms MS] [-write-timeout-ms MS]\n"
               "          [-fault-plan SPEC]\n"
               "\n"
               "ENDPOINT is unix:/path or tcp:HOST:PORT (port 0 = kernel-assigned;\n"
               "the resolved endpoint is printed on stdout).  Defaults: -listen\n"
               "unix:/tmp/tird.sock, -workers 0 (hardware concurrency), -queue 64,\n"
               "-cache-mb 256 (0 disables caching), -retry-after-ms 50,\n"
               "-read-timeout-ms 30000 (mid-line stall cutoff; 0 = none),\n"
               "-write-timeout-ms 10000 (stalled-reader cutoff; 0 = none).\n"
               "\n"
               "-fault-plan SPEC (or the TIR_FAULT_PLAN env var; the flag wins) arms\n"
               "deterministic fault injection for chaos testing, e.g.\n"
               "  seed=7;svc.net.write=short:0.2;svc.net.read=reset:0.05\n"
               "Points: svc.net.read|write|accept|dial, svc.cache.load.  Kinds:\n"
               "eintr, eagain, short, reset, accept-fail, stall, alloc-fail.  Each\n"
               "rule is KIND:PROB[:MAX_FIRES] (max fires defaults to 64).\n"
               "\n"
               "SIGTERM/SIGINT or {\"op\":\"shutdown\"} drain admitted jobs, then exit.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tir;
  svc::ServerOptions options;
  std::string fault_plan;
  if (const char* env = std::getenv("TIR_FAULT_PLAN")) fault_plan = env;

  // Every flag takes a value.  Strict parsing: a malformed or out-of-range
  // number prints the usage and exits 2 instead of starting a daemon with
  // capacity 0 or 2^64-1.
  int queue = static_cast<int>(options.queue_capacity);
  double cache_mb = static_cast<double>(options.cache_bytes) / (1 << 20);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    bool ok = true;
    if (value == nullptr) {
      ok = false;
    } else if (arg == "-listen") {
      options.endpoint = value;
    } else if (arg == "-workers") {
      ok = cli::parse_int(value, options.workers);
    } else if (arg == "-queue") {
      ok = cli::parse_int(value, queue) && queue > 0;
    } else if (arg == "-cache-mb") {
      // The upper bound keeps the byte count inside uint64_t.
      ok = cli::parse_double(value, cache_mb) && cache_mb >= 0 && cache_mb < 1e12;
    } else if (arg == "-retry-after-ms") {
      ok = cli::parse_int(value, options.retry_after_ms) && options.retry_after_ms >= 0;
    } else if (arg == "-read-timeout-ms") {
      ok = cli::parse_int(value, options.read_timeout_ms) && options.read_timeout_ms >= 0;
    } else if (arg == "-write-timeout-ms") {
      ok = cli::parse_int(value, options.write_timeout_ms) && options.write_timeout_ms >= 0;
    } else if (arg == "-fault-plan" || arg == "--fault-plan") {
      fault_plan = value;  // the flag wins over TIR_FAULT_PLAN
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: bad option '%s %s'\n", argv[0], arg.c_str(), value ? value : "");
      usage(argv[0]);
      return 2;
    }
  }
  options.queue_capacity = static_cast<std::size_t>(queue);
  options.cache_bytes = static_cast<std::uint64_t>(cache_mb * (1 << 20));

  // MSG_NOSIGNAL covers socket sends, but belt and braces: a write to any
  // broken pipe must surface as an error return, never kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  // Block the shutdown signals in every thread (the server's workers inherit
  // this mask), then give them to a dedicated watcher thread via sigwait.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  try {
    if (!fault_plan.empty()) {
      fault::arm(fault::FaultPlan::parse(fault_plan));  // ConfigError on bad specs
      std::fprintf(stderr, "tird: fault plan armed: %s\n", fault_plan.c_str());
    }
    svc::Server server(options);
    server.start();
    std::printf("tird: listening on %s\n", server.endpoint().c_str());
    std::fflush(stdout);

    std::atomic<bool> exiting{false};
    std::thread watcher([&] {
      int sig = 0;
      sigwait(&signals, &sig);
      if (exiting.load()) return;  // woken by main after a wire-side shutdown
      std::fprintf(stderr, "tird: %s — draining admitted jobs\n", strsignal(sig));
      server.shutdown();
    });

    server.wait();
    // If the drain came over the wire ({"op":"shutdown"}), the watcher is
    // still parked in sigwait: mark the exit and send ourselves the signal it
    // is waiting for.  A signal that raced in stays pending and dies with us.
    exiting.store(true);
    kill(getpid(), SIGTERM);
    watcher.join();
    std::fprintf(stderr, "tird: drained, exiting\n");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "tird: [%s] %s\n", e.code_name(), e.what());
    return 1;
  }
}
