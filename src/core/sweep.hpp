// core::Sweep: replay one shared trace under many scenarios, in parallel.
//
// The paper's whole use case is asking "what if I ran this app on *that*
// platform?" hundreds of times: calibration ladders, cluster dimensioning,
// ablation grids.  A sweep takes one immutable trace (titio::SharedTrace)
// plus a vector of Scenario{platform, config, backend} and replays every
// scenario on a worker pool, returning per-scenario results in input order.
//
// Guarantees:
//
//   * Determinism — a scenario's ReplayResult is bit-identical regardless
//     of the worker count: each session owns its engine and its trace
//     cursor, and parallelism is only ever *across* scenarios, never inside
//     one (tested in tests/core/sweep_test).
//
//   * Fail isolation — a scenario that throws tir::Error (bad config,
//     malformed trace, deadlock, watchdog) is captured into its own
//     ScenarioOutcome (ok=false, error text + ErrorCode); the other
//     scenarios are unaffected and the sweep always returns a full vector.
//
//   * Shared-input economy — all sessions stream from one decoded copy of
//     the trace through cursor-only sources; N scenarios do not parse,
//     decode or copy the actions N times.
//
// Threading contract for the caller: every Scenario needs its own
// obs::Sink instance (or none) — a sink is driven by exactly one session
// thread; the sweep-level place to combine them is the on_scenario_done
// callback, which may be invoked concurrently from worker threads and must
// synchronize any state it shares across scenarios.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "platform/model.hpp"
#include "titio/shared.hpp"

namespace tir::core {

/// Cooperative cancellation for sweeps (and anything else that polls it).
/// Two triggers, both observed between scenarios — a scenario that already
/// started runs to completion (its watchdog bounds that):
///
///   * cancel() — an explicit request (server drain, client went away);
///   * a steady_clock deadline — per-job deadline enforcement in tird.
///
/// Thread safety: cancel()/cancelled() may be called from any thread
/// concurrently (atomic flag + immutable deadline after construction).
/// The sweep borrows the token const; the owner keeps it alive for the call.
class CancelToken {
 public:
  CancelToken() = default;
  /// Token that trips when `deadline` passes (and on cancel(), as always).
  explicit CancelToken(std::chrono::steady_clock::time_point deadline)
      : deadline_(deadline), has_deadline_(true) {}

  void cancel() const { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// One cell of a sweep grid: where (platform) and how (config, backend) to
/// replay the shared trace.  The platform is a platform::PlatformRef —
/// either borrowed const (assign `&platform` as before: it must outlive the
/// sweep call and may be shared by any number of scenarios, Platform being
/// immutable after construction) or owned (assign the shared_ptr a
/// PlatformModel::instantiate() returned: the scenario keeps the sampled
/// instance alive by itself, which is how core::mc_sweep and the service
/// plumb per-seed platforms through an unchanged sweep).
struct Scenario {
  platform::PlatformRef platform;
  ReplayConfig config{};
  Backend backend = Backend::Smpi;
  std::string label;
};

struct ScenarioOutcome {
  std::string label;
  bool ok = false;
  ReplayResult result{};  ///< valid only when ok
  std::string error;      ///< what() of the captured exception when !ok
  ErrorCode error_code = ErrorCode::Generic;
};

struct SweepOptions {
  /// Worker threads; <= 0 means hardware concurrency.  jobs=1 runs every
  /// scenario inline on the calling thread (no threads spawned).
  int jobs = 0;
  /// Optional completion hook, called once per scenario with its index and
  /// finished outcome.  Invoked from worker threads, possibly concurrently:
  /// the callee synchronizes any state shared across scenarios.
  std::function<void(std::size_t, const ScenarioOutcome&)> on_scenario_done;
  /// Optional cancel token, polled before each scenario starts.  Scenarios
  /// claimed after it trips finish immediately as ok=false outcomes with
  /// ErrorCode::Cancelled; scenarios already running complete normally.
  /// Borrowed const — must outlive the sweep call.
  const CancelToken* cancel = nullptr;
};

/// Resolve a jobs request: values <= 0 become hardware concurrency (>= 1).
int resolve_jobs(int jobs);

/// Replay `trace` under every scenario; outcomes in input order.
std::vector<ScenarioOutcome> sweep(const titio::SharedTrace& trace,
                                   const std::vector<Scenario>& scenarios,
                                   const SweepOptions& options = {});

}  // namespace tir::core
