// The tird wire protocol: newline-delimited JSON requests and responses.
//
// One request per line; the daemon answers each request with one or more
// response lines, every one tagged with the request's job id so clients may
// pipeline.  docs/service.md is the normative spec; this header is the typed
// mirror both the server and the clients (tir-submit, bench_gates) share, so
// a field added here is added everywhere at once.
//
// Requests:
//   {"op":"predict", "trace":..., "platform":..., "scenarios":[...], ...}
//   {"op":"ping"}         liveness probe
//   {"op":"stats"}        queue/cache/worker counters
//   {"op":"flush"}        drop every cache entry (benchmarks, tests)
//   {"op":"shutdown"}     drain admitted jobs, then exit
//
// Responses (type field):
//   rejected   admission queue full — carries retry_after_ms
//   accepted   job admitted — carries queue_depth
//   started    a worker picked the job up — carries cache hit/miss truth
//   scenario   one ScenarioOutcome, streamed as it completes
//   done       job epilogue — phase timings, optional metrics reports
//   failed     job died before any scenario ran (bad trace/platform/config)
//   pong/stats/ok/error  op plumbing
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.hpp"
#include "core/calibration.hpp"
#include "core/job.hpp"

namespace tir::svc {

// The JSON value lives in src/base; perfbench still spells it svc::Json.
using tir::Json;

/// One scenario cell of a job (core::plan_job maps it onto a replay).
using ScenarioSpec = core::ScenarioSpec;

struct JobRequest {
  std::string op;        ///< "predict" | "ping" | "stats" | "flush" | "shutdown"
  std::uint64_t id = 0;  ///< assigned by the server at admission
  std::string trace;     ///< manifest or TITB path
  int nprocs = -1;       ///< single-file text manifests need it
  std::string platform;  ///< platform file; empty = default flat gigabit cluster
  std::vector<ScenarioSpec> scenarios;
  bool metrics = false;  ///< attach TimelineSinks, stream obs metrics JSON
  /// Optional declarative calibration; scenarios without explicit rates use
  /// its result, and the daemon caches it by (platform, request) key.
  bool calibrate = false;
  core::CalibrationRequest calibration;
  /// Per-job deadline in milliseconds from admission (0 = none).  The server
  /// cancels remaining scenarios between scenarios once it passes; expired
  /// jobs fail with ErrorCode::Cancelled and "expired":true.
  double deadline_ms = 0.0;
  /// Idempotency key ("idem" on the wire, 16 hex chars from content_key()).
  /// A re-submitted key whose job already completed is answered from the
  /// server's result cache, bit-identical to the first run.  Empty = none.
  std::string idem_key;
  /// Platform perturbation spec (platform::PerturbationSpec grammar, see
  /// docs/variability.md).  Empty = replay the platform as described.  When
  /// set, every scenario is expanded over `mc_replicates` seeded platform
  /// instances and the done line carries the aggregate quantiles; the
  /// spec + seed are folded into the platform and calibration cache keys so
  /// perturbed jobs never collide with unperturbed ones (or each other).
  std::string perturb;
  /// Monte Carlo replicates per scenario when `perturb` is set (<= 0: one).
  int mc_replicates = 0;
};

/// The canonical content fingerprint of a predict request: what it asks for
/// (trace, platform, scenarios, calibration, metrics) — not when it must be
/// done by (deadline) and not its identity fields (id, idem).  Retries use
/// this as the idempotency key so a completed job is never re-run.
std::string content_key(const JobRequest& request);

/// Parse one request line.  Throws tir::ParseError/ConfigError on malformed
/// JSON, unknown ops, or missing required fields.
JobRequest parse_request(const std::string& line);

/// Serialize a predict request (the clients' send path).
std::string render_request(const JobRequest& request);

// --- response builders (server side) ----------------------------------------

Json make_rejected(std::uint64_t job, int retry_after_ms, std::size_t queue_depth,
                   std::size_t queue_capacity);
Json make_accepted(std::uint64_t job, std::size_t queue_depth, std::size_t queue_capacity);
Json make_failed(std::uint64_t job, const std::string& error, ErrorCode code);
Json make_scenario(std::uint64_t job, std::size_t index, const core::ScenarioOutcome& outcome);

/// Round-trip a ScenarioOutcome from its wire form (the bench's bit-identity
/// check reads these back).  Unknown fields are ignored.
core::ScenarioOutcome parse_scenario(const Json& response);

}  // namespace tir::svc
