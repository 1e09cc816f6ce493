// Metrics aggregation over a recorded timeline.
//
// Turns the raw event record (obs::TimelineSink) into the report the paper's
// analysis needs: where did each rank's simulated time go (compute / comm /
// wait), how much traffic rode the eager vs. the rendezvous path (split at
// the 64 KiB threshold the paper §3.3 turns on), how much time each
// collective type cost, and how busy the network links were under the rates
// the sharing model assigned.
//
// Category definitions (docs/observability.md):
//   compute  = time in Compute phases
//   comm     = time in Send + Recv + Collective phases
//   wait     = time in Wait phases (wait/waitall on nonblocking requests)
//              + Idle (after the rank's last action, before the global end)
//
// The three categories partition every rank's [0, simulated_time] exactly:
// per rank, compute + comm + wait == simulated_time to within accumulated
// floating-point rounding (tested at 1e-9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.hpp"
#include "obs/timeline.hpp"

namespace tir::platform {
class Platform;
}

namespace tir::obs {

struct RankMetrics {
  std::string name;
  // Per-state time (seconds of simulated time).
  double by_state[kRankStateCount] = {};
  std::uint64_t actions = 0;       ///< phases recorded (incl. zero-duration)
  std::uint64_t messages = 0;      ///< send/isend phases
  double bytes_sent = 0.0;
  std::uint64_t eager_messages = 0;       ///< sends below the size threshold
  std::uint64_t rendezvous_messages = 0;  ///< sends at or above it
  double eager_bytes = 0.0;
  double rendezvous_bytes = 0.0;

  double state_seconds(RankState s) const {
    return by_state[static_cast<std::size_t>(s)];
  }
  double compute_seconds() const { return state_seconds(RankState::Compute); }
  double comm_seconds() const {
    return state_seconds(RankState::Send) + state_seconds(RankState::Recv) +
           state_seconds(RankState::Collective);
  }
  double wait_seconds() const {
    return state_seconds(RankState::Wait) + state_seconds(RankState::Idle);
  }
};

struct CollectiveMetrics {
  std::string op;                ///< "allreduce", "barrier", ...
  std::uint64_t sites = 0;       ///< calls summed over ranks
  double seconds = 0.0;          ///< rank-time spent inside, summed over ranks
  double bytes = 0.0;            ///< payload bytes summed over ranks
};

struct LinkMetrics {
  int link = -1;
  std::string name;
  double busy_seconds = 0.0;
  double bytes = 0.0;
  double utilization = 0.0;  ///< bytes / (bandwidth * simulated_time); 0 if unknown
};

struct MetricsReport {
  double simulated_time = 0.0;
  std::uint64_t steps = 0;
  std::vector<RankMetrics> ranks;
  std::vector<CollectiveMetrics> collectives;  ///< ops actually seen, stable order
  std::vector<LinkMetrics> links;              ///< links that carried traffic
  TimelineSink::MessageStats protocol;         ///< SMPI protocol truth (if any)
  std::vector<Diagnosis> diagnoses;            ///< non-empty for wedged replays

  // Totals over ranks.
  double total_compute = 0.0;
  double total_comm = 0.0;
  double total_wait = 0.0;
};

/// Aggregate a finalized timeline.  `eager_threshold` splits the per-rank
/// message-size classes (the protocol-truth split from the SMPI layer is
/// reported separately in `protocol`).  `platform`, when given, provides
/// link names and capacities for the utilization figures.
MetricsReport aggregate(const TimelineSink& timeline, double eager_threshold = 65536.0,
                        const platform::Platform* platform = nullptr);

/// The report as a JSON value; its numbers carry 12 significant digits.
Json to_json(const MetricsReport& report);

/// Write to_json(report) to `path` as one line; throws tir::Error on I/O
/// failure.
void write_json(const MetricsReport& report, const std::string& path);

}  // namespace tir::obs
