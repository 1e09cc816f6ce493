#include "svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/rng.hpp"

namespace tir::svc {

namespace {

JobResult transport_failure(std::string what) {
  JobResult result;
  result.failed = true;
  result.transport = true;
  result.error = std::move(what);
  result.error_code = "error";
  return result;
}

}  // namespace

Client::Client(const std::string& endpoint) : conn_(dial(endpoint)) {}

JobResult Client::submit(const JobRequest& request) {
  JobResult result;
  result.attempts = 1;
  try {
    if (!conn_.write_line(render_request(request))) {
      return transport_failure("connection closed before the request was sent");
    }
    std::string line;
    while (conn_.read_line(line)) {
      if (line.empty()) continue;
      Json response = Json::parse(line);
      const std::string type = response.str_or("type", "");
      // "accepted" and "started" may arrive in either order (the admission ack
      // and the worker stream race on the shared socket); key on type, not
      // position.
      if (type == "rejected") {
        result.rejected = true;
        result.retry_after_ms = static_cast<int>(response.num_or("retry_after_ms", 0));
        return result;
      }
      // Any job-stamped line may be the first one seen ("accepted" can lose
      // the race to the worker's whole stream on a fast job).
      if (!response.get("job").is_null()) {
        result.id = static_cast<std::uint64_t>(response.num_or("job", 0));
      }
      if (type == "accepted") {
        result.accepted = true;
      } else if (type == "started") {
        result.started = std::move(response);
      } else if (type == "scenario") {
        result.scenarios.push_back(std::move(response));
      } else if (type == "done") {
        result.expired = response.bool_or("expired", false);
        result.epilogue = std::move(response);
        result.done = true;
        return result;
      } else if (type == "failed" || type == "error") {
        result.failed = true;
        result.expired = response.bool_or("expired", false);
        result.error = response.str_or("error", "");
        result.error_code = response.str_or("error_code", "generic");
        return result;
      }
      // pong/stats/ok from a pipelined op: not ours, skip.
    }
  } catch (const Error& e) {
    // Reset, read timeout, oversized line: the transport died under us.
    return transport_failure(e.what());
  }
  return transport_failure("connection closed mid-job");
}

Json Client::roundtrip(const std::string& line, const std::string& expect_type) {
  if (!conn_.write_line(line)) return Json();
  std::string response_line;
  while (conn_.read_line(response_line)) {
    if (response_line.empty()) continue;
    Json response = Json::parse(response_line);
    const std::string type = response.str_or("type", "");
    if (type == expect_type || type == "error") return response;
  }
  return Json();
}

bool Client::ping() {
  const Json pong = roundtrip("{\"op\":\"ping\"}", "pong");
  return pong.str_or("type", "") == "pong";
}

Json Client::stats() { return roundtrip("{\"op\":\"stats\"}", "stats"); }

bool Client::flush() {
  const Json ok = roundtrip("{\"op\":\"flush\"}", "ok");
  return ok.str_or("type", "") == "ok";
}

bool Client::shutdown_server() {
  const Json ok = roundtrip("{\"op\":\"shutdown\"}", "ok");
  return ok.str_or("type", "") == "ok";
}

// --- resilient submit --------------------------------------------------------

JobResult submit_with_retry(const std::string& endpoint, JobRequest request,
                            const RetryPolicy& policy, std::vector<RetryEvent>* schedule) {
  // Stamp the idempotency key before the first attempt so *every* attempt
  // (including one whose response stream died mid-flight) shares it.
  if (request.idem_key.empty()) request.idem_key = content_key(request);

  const bool bounded = policy.deadline_seconds > 0;
  const auto overall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(bounded ? policy.deadline_seconds : 0.0));
  const auto remaining_ms = [&]() -> double {
    if (!bounded) return 0.0;
    return std::chrono::duration<double, std::milli>(overall_deadline -
                                                     std::chrono::steady_clock::now())
        .count();
  };

  rng::Sequence jitter(rng::combine(policy.seed, 0x7265747279ULL));  // "retry"
  double previous_backoff = policy.base_ms;
  JobResult result;
  const int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (bounded && remaining_ms() <= 0) {
      if (result.attempts == 0) {
        result = transport_failure("retry deadline expired before any attempt finished");
        result.error_code = "cancelled";
      }
      result.expired = true;
      return result;
    }
    if (bounded) {
      // The server enforces the *remaining* budget, not the original one.
      request.deadline_ms = std::max(1.0, remaining_ms());
    }
    try {
      Client client(endpoint);
      if (bounded) {
        client.set_timeouts(static_cast<int>(std::max(1.0, remaining_ms())) + 100, 0);
      }
      result = client.submit(request);
      result.attempts = attempt;
    } catch (const Error& e) {
      // dial() failed: daemon not listening / injected connect reset.
      result = transport_failure(e.what());
      result.attempts = attempt;
    }

    const bool retryable = result.rejected || (result.failed && result.transport);
    if (!retryable || attempt == attempts) return result;

    // Decorrelated jitter, floored at the server's retry_after_ms hint when
    // the attempt was rejected for backpressure.
    double backoff =
        std::min(policy.max_backoff_ms,
                 jitter.next_uniform(policy.base_ms, std::max(policy.base_ms,
                                                              3.0 * previous_backoff)));
    if (result.rejected) backoff = std::max(backoff, static_cast<double>(result.retry_after_ms));
    if (bounded) backoff = std::min(backoff, std::max(0.0, remaining_ms()));
    previous_backoff = backoff;
    if (schedule != nullptr) {
      schedule->push_back(
          RetryEvent{attempt, backoff, result.rejected ? "rejected" : "transport"});
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff));
    }
  }
  return result;
}

}  // namespace tir::svc
