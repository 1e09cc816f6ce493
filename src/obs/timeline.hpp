// TimelineSink: the in-memory recorder behind every obs consumer.
//
// Records, per rank, the gap-free sequence of state intervals the replay
// back-end emitted (phase begin/end pairs), plus the engine- and protocol-
// level streams the aggregator needs: per-link busy time and traffic (from
// the per-step communication progress events, i.e. the rates the max-min
// solver assigned), message protocol classification from the SMPI layer,
// and the wait-for diagnosis lines of a wedged replay.
//
// Invariants on the recorded timeline (tested in tests/obs/timeline_test):
//   * per rank, interval begin/end times are monotone non-decreasing;
//   * intervals tile [0, finalized_time()] exactly: interval k ends where
//     interval k+1 begins, the first begins at 0, and finalize() appends the
//     Idle tail from the rank's last phase end to the simulation end.
//
// Memory is O(replayed actions): this is the profiling path.  A replay with
// no sink attached allocates none of this.
#pragma once

#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace tir::obs {

/// One recorded state interval of one rank.  Zero-duration intervals are
/// kept (an eager isend consumes no simulated time but still carries bytes);
/// exporters that only care about visible time skip them.
struct Interval {
  RankState state = RankState::Idle;
  double begin = 0.0;
  double end = 0.0;
  const char* op = nullptr;  ///< static action name, null for Idle
  double bytes = 0.0;
  double bytes2 = 0.0;
  int partner = -1;
  std::int64_t site = -1;

  double duration() const { return end - begin; }
};

/// A wait-for diagnosis line captured when the engine reported a wedged
/// replay (deadlock or watchdog).
struct Diagnosis {
  int actor = -1;
  std::string name;
  std::string text;
  double time = 0.0;
};

/// Per-link accumulators fed by on_comm_progress.
struct LinkUsage {
  double busy_seconds = 0.0;  ///< time with >= 1 flow transferring
  double bytes = 0.0;         ///< total bytes carried
};

class TimelineSink : public Sink {
 public:
  // --- Sink hooks ---------------------------------------------------------
  void on_actor_spawn(int actor, std::string_view name, platform::HostId host) override;
  void on_actor_done(int actor, double now) override;
  void on_time_advance(double now, double dt) override;
  void on_comm_progress(std::span<const platform::LinkId> links, double rate,
                        double dt) override;
  void on_sim_end(double now) override;
  void on_message(int src, int dst, double bytes, bool eager, bool collective) override;
  void on_phase_begin(const PhaseEvent& e, double now) override;
  void on_phase_end(int rank, double now) override;
  void on_warning(std::string_view text) override;
  void on_diagnosis(int actor, std::string_view name, std::string_view text,
                    double now) override;

  // --- recorded data ------------------------------------------------------
  int nranks() const { return static_cast<int>(ranks_.size()); }
  const std::vector<Interval>& intervals(int rank) const;
  const std::string& rank_name(int rank) const;
  platform::HostId rank_host(int rank) const;

  /// True once on_sim_end ran (Idle tails appended, end time frozen).
  bool finalized() const { return finalized_; }
  /// Simulation end time; only meaningful once finalized().
  double finalized_time() const { return end_time_; }

  const std::vector<LinkUsage>& link_usage() const { return links_; }
  const std::vector<Diagnosis>& diagnoses() const { return diagnoses_; }
  /// Non-fatal warnings emitted during the run (config checks, ...).
  const std::vector<std::string>& warnings() const { return warnings_; }

  /// Protocol-classified p2p traffic from the SMPI layer (empty for the MSG
  /// back-end, which has no protocol split).
  struct MessageStats {
    std::uint64_t eager_messages = 0;
    std::uint64_t rendezvous_messages = 0;
    double eager_bytes = 0.0;
    double rendezvous_bytes = 0.0;
    std::uint64_t collective_messages = 0;  ///< collective-internal p2p
    double collective_bytes = 0.0;
  };
  const MessageStats& message_stats() const { return messages_; }

  /// Steps observed (time advances); mirrors Engine::steps() for the run.
  std::uint64_t steps() const { return steps_; }

 private:
  struct RankRec {
    std::string name;
    platform::HostId host = platform::kNoHost;
    std::vector<Interval> intervals;
    bool open = false;  ///< a phase began and has not ended yet
  };

  RankRec& rank_rec(int rank);

  std::vector<RankRec> ranks_;
  std::vector<LinkUsage> links_;
  std::vector<std::uint64_t> link_stamp_;  ///< last step a link was seen busy
  std::vector<Diagnosis> diagnoses_;
  std::vector<std::string> warnings_;
  MessageStats messages_;
  std::uint64_t steps_ = 0;
  double end_time_ = 0.0;
  bool finalized_ = false;
};

/// Clip a rank's interval sequence to the window [from, to]: intervals
/// overlapping the window are kept with begin/end clamped to it; the rest
/// are dropped.  Zero-width intervals (eager isends) are kept only when
/// strictly inside the window — an event exactly at `from` (unless from is
/// 0) or exactly at `to` belongs to the neighboring window and is dropped,
/// which is what makes a resumed replay's sliced timeline bit-identical to
/// the cold one's (src/ckpt).  Throws tir::Error when to < from.
std::vector<Interval> slice(const std::vector<Interval>& intervals, double from, double to);

}  // namespace tir::obs
