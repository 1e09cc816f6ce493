// Client side of the tird protocol, shared by tir-submit, bench_gates and the
// service tests: dial the daemon, submit one job at a time, collect the
// streamed responses into a JobResult.
//
// A Client wraps one connection and is single-threaded: submit() blocks
// until the job reaches a terminal response (rejected / done / failed).
// Load generators wanting concurrency open one Client per in-flight job
// (that is also what exercises the daemon's admission control honestly).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/net.hpp"
#include "svc/protocol.hpp"

namespace tir::svc {

/// Everything one job's response stream said.
struct JobResult {
  std::uint64_t id = 0;
  bool accepted = false;
  bool rejected = false;  ///< backpressure: retry after retry_after_ms
  int retry_after_ms = 0;
  bool done = false;    ///< full scenario stream received
  bool failed = false;  ///< job-level failure (bad trace/platform/config)
  std::string error;
  std::string error_code;
  /// The failure was transport-level (dial/read/write died, EOF mid-job) —
  /// the server never gave a verdict, so the job is safe to retry.
  bool transport = false;
  /// The server reported deadline expiry ("expired":true on failed/done).
  bool expired = false;
  /// Submits actually sent by submit_with_retry (1 for plain submit).
  int attempts = 0;

  Json started;                 ///< the "started" response (cache truth, timings)
  std::vector<Json> scenarios;  ///< "scenario" responses in completion order
  Json epilogue;                ///< the "done" response (phase timings, metrics)

  bool trace_cache_hit() const { return started.str_or("trace_cache", "") == "hit"; }
  double queue_wait_seconds() const { return epilogue.num_or("queue_wait_seconds", 0.0); }
};

class Client {
 public:
  /// Dial the daemon; throws tir::Error if it is not listening.
  explicit Client(const std::string& endpoint);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Arm per-direction socket timeouts (deadline semantics: any read stall
  /// throws inside submit and is reported as a transport failure).
  void set_timeouts(int recv_ms, int send_ms) {
    conn_.set_timeouts(recv_ms, send_ms, LineConn::TimeoutMode::Always);
  }

  /// Submit one predict job and block until its terminal response.
  /// Transport-level failures (reset, timeout, EOF mid-job) come back as
  /// failed results with transport=true — submit never throws once dialed.
  JobResult submit(const JobRequest& request);

  /// Liveness probe; false when the daemon hung up instead of answering.
  bool ping();

  /// The daemon's {"type":"stats"} snapshot.
  Json stats();

  /// Drop the daemon's caches.
  bool flush();

  /// Ask the daemon to drain and exit (it acknowledges before stopping).
  bool shutdown_server();

 private:
  /// Send one op line and read responses until `expect_type` (skipping any
  /// stray lines); null Json on EOF.
  Json roundtrip(const std::string& line, const std::string& expect_type);

  LineConn conn_;
};

/// How submit_with_retry backs off: exponential with decorrelated jitter
/// (sleep = min(max_backoff, uniform(base, 3 * previous)); AWS-style),
/// seeded so a given (seed, attempt) sequence is reproducible run-to-run.
struct RetryPolicy {
  int max_attempts = 5;
  double base_ms = 10.0;          ///< first backoff and jitter floor
  double max_backoff_ms = 2000.0;
  /// Overall wall-clock budget across all attempts (0 = none).  Also sent
  /// to the server as the per-request deadline_ms (the remaining budget),
  /// and armed as the socket read timeout so a stalled daemon cannot hold
  /// the client past its deadline.
  double deadline_seconds = 0.0;
  std::uint64_t seed = 1;
};

/// One backoff decision, for -v style reporting of the schedule used.
struct RetryEvent {
  int attempt = 0;        ///< the attempt that just ended (1-based)
  double backoff_ms = 0;  ///< sleep before the next attempt
  std::string reason;     ///< "rejected" | "transport" | ...
};

/// Resilient submit: a fresh connection per attempt, exponential backoff
/// with decorrelated jitter, the server's retry_after_ms hint honored as the
/// backoff floor, an optional overall deadline, and idempotent re-submits —
/// the request is stamped with its content key (unless the caller already
/// set idem_key), so an attempt that completed server-side but died on the
/// response path is answered from the daemon's result cache bit-identically
/// instead of re-running.
///
/// `schedule` (optional) records every backoff decision for -v reporting.  Returns the last attempt's JobResult with .attempts
/// filled in; never throws for transport-shaped failures.
JobResult submit_with_retry(const std::string& endpoint, JobRequest request,
                            const RetryPolicy& policy = {},
                            std::vector<RetryEvent>* schedule = nullptr);

}  // namespace tir::svc
