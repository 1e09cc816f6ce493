#include "ckpt/cursor.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_map>

#include "base/error.hpp"
#include "base/log.hpp"
#include "obs/sink.hpp"

namespace tir::ckpt {

namespace {

std::uint64_t pair_key(std::int32_t src, std::int32_t dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

/// The streaming cut-finder of one cold recording (checkpoint.hpp): each
/// phase end completes trace.actions(rank)[completed] of the trace being
/// replayed, and the counters that action moves decide whether the cut
/// after it is balanced.
class CutFinder final : public obs::Sink {
 public:
  CutFinder(const tit::Trace& trace, core::Backend backend, std::uint64_t interval)
      : trace_(trace),
        backend_(backend),
        interval_(std::max<std::uint64_t>(interval, 1)),
        ranks_(static_cast<std::size_t>(trace.nprocs())),
        at_coll_max_(ranks_.size()),
        next_target_(interval_) {
    for (RankTrack& r : ranks_) r.prefix_hash = prefix_hash_seed();
  }

  void on_phase_end(int rank, double now) override;

  std::vector<TraceCheckpoint> take_checkpoints() { return std::move(checkpoints_); }

 private:
  struct Outstanding {
    tit::ActionType type;
    std::int32_t partner;
  };
  struct RankTrack {
    std::uint64_t completed = 0;         ///< k_r
    double time = 0.0;                   ///< t_r: time of last completion
    std::uint64_t collective_sites = 0;  ///< coll_r
    std::uint64_t prefix_hash = 0;
    std::deque<Outstanding> outstanding; ///< mirror of the engine's queue
  };

  void bump_pair(std::int32_t src, std::int32_t dst, std::int64_t delta);
  bool balanced() const;
  void take_cut();

  const tit::Trace& trace_;
  core::Backend backend_;
  std::uint64_t interval_;

  std::vector<RankTrack> ranks_;
  std::unordered_map<std::uint64_t, std::int64_t> pair_diff_;  ///< sent - recvd
  std::size_t nonzero_pairs_ = 0;
  std::uint64_t coll_max_ = 0;   ///< max coll_r over ranks
  std::size_t at_coll_max_;      ///< ranks with coll_r == coll_max
  std::size_t ranks_with_outstanding_ = 0;
  std::uint64_t total_completed_ = 0;
  std::uint64_t next_target_;
  std::vector<TraceCheckpoint> checkpoints_;
};

void CutFinder::bump_pair(std::int32_t src, std::int32_t dst, std::int64_t delta) {
  std::int64_t& v = pair_diff_[pair_key(src, dst)];
  const bool was = v != 0;
  v += delta;
  const bool is = v != 0;
  if (was != is) nonzero_pairs_ += is ? 1 : std::size_t(-1);
}

bool CutFinder::balanced() const {
  return nonzero_pairs_ == 0 && ranks_with_outstanding_ == 0 && at_coll_max_ == ranks_.size();
}

void CutFinder::on_phase_end(int rank, double now) {
  RankTrack& r = ranks_[static_cast<std::size_t>(rank)];
  const std::vector<tit::Action>& seq = trace_.actions(rank);
  TIR_ASSERT(r.completed < seq.size());  // one phase end per replayed action
  const tit::Action& a = seq[static_cast<std::size_t>(r.completed)];
  const bool had_outstanding = !r.outstanding.empty();

  switch (a.type) {
    case tit::ActionType::Send:
      bump_pair(rank, a.partner, +1);
      break;
    case tit::ActionType::Isend:
      bump_pair(rank, a.partner, +1);
      r.outstanding.push_back(Outstanding{a.type, a.partner});
      break;
    case tit::ActionType::Recv:
      bump_pair(a.partner, rank, -1);
      break;
    case tit::ActionType::Irecv:
      if (backend_ == core::Backend::Msg) {
        // The old back-end services irecv as a blocking mailbox receive:
        // the message has arrived when the action completes.
        bump_pair(a.partner, rank, -1);
      } else {
        // SMPI posts the receive; the data lands at the matching wait.
        r.outstanding.push_back(Outstanding{a.type, a.partner});
      }
      break;
    case tit::ActionType::Wait:
      if (!r.outstanding.empty()) {
        const Outstanding done = r.outstanding.front();
        r.outstanding.pop_front();
        if (done.type == tit::ActionType::Irecv) bump_pair(done.partner, rank, -1);
      }
      break;
    case tit::ActionType::WaitAll:
      for (const Outstanding& done : r.outstanding) {
        if (done.type == tit::ActionType::Irecv) bump_pair(done.partner, rank, -1);
      }
      r.outstanding.clear();
      break;
    default:
      if (tit::is_collective(a.type)) {
        ++r.collective_sites;
        if (r.collective_sites - 1 == coll_max_) {
          // This rank moves past the frontier.
          coll_max_ = r.collective_sites;
          at_coll_max_ = 1;
        } else if (r.collective_sites == coll_max_) {
          ++at_coll_max_;
        }
      }
      break;
  }

  const bool has_outstanding = !r.outstanding.empty();
  if (had_outstanding != has_outstanding) {
    ranks_with_outstanding_ += has_outstanding ? 1 : std::size_t(-1);
  }

  ++r.completed;
  r.time = now;
  r.prefix_hash = titio::fold_action_hash(r.prefix_hash, a);
  ++total_completed_;
  if (total_completed_ >= next_target_ && balanced()) take_cut();
}

void CutFinder::take_cut() {
  TraceCheckpoint c;
  c.ranks.reserve(ranks_.size());
  for (const RankTrack& r : ranks_) {
    c.time = std::max(c.time, r.time);
    c.ranks.push_back(CkptRankState{r.completed, r.time, r.collective_sites, r.prefix_hash});
  }
  // A cut at the same instant as the previous one adds nothing (and would
  // break the ascending-time invariant consumers rely on).
  if (!checkpoints_.empty() && c.time <= checkpoints_.back().time) return;
  checkpoints_.push_back(std::move(c));
  next_target_ = total_completed_ + interval_;
}

}  // namespace

ReplayCursor::ReplayCursor(titio::SharedTrace trace, const platform::Platform& platform,
                           core::ReplayConfig config, core::Backend backend)
    : trace_(std::move(trace)),
      platform_(platform),
      config_(std::move(config)),
      backend_(backend),
      fingerprint_(scenario_fingerprint(backend, platform, config_)) {
  // The cursor drives these itself; a caller-provided resume/stop would
  // silently skew every query, and run() sets the sink of every replay.
  config_.resume = nullptr;
  config_.stop_time = std::numeric_limits<double>::infinity();
  config_.sink = nullptr;
}

core::ReplayResult ReplayCursor::record(std::uint64_t action_interval) {
  check_seekable(nprocs(), platform_, config_);
  CutFinder finder(trace_.trace(), backend_, action_interval);
  current_ = nullptr;  // recordings replay cold, from action 0
  const core::ReplayResult result = run(std::numeric_limits<double>::infinity(), &finder);
  block_.fingerprint = fingerprint_;
  block_.nprocs = nprocs();
  block_.checkpoints = finder.take_checkpoints();
  return result;
}

std::size_t ReplayCursor::adopt(const CheckpointBlock& block) {
  if (block.fingerprint != fingerprint_) {
    throw ConfigError("checkpoint set was recorded under a different scenario (fingerprint " +
                      std::to_string(block.fingerprint) + ", this cursor is " +
                      std::to_string(fingerprint_) + ")");
  }
  if (block.nprocs != nprocs()) {
    throw ConfigError("checkpoint set covers " + std::to_string(block.nprocs) +
                      " ranks, trace has " + std::to_string(nprocs()));
  }
  const tit::Trace& trace = trace_.trace();
  const auto n = static_cast<std::size_t>(nprocs());
  // One incremental fold pass over the trace validates every checkpoint's
  // per-rank prefix hash: positions are non-decreasing across an ascending
  // checkpoint sequence, so each rank's hash advances monotonically.
  std::vector<std::uint64_t> pos(n, 0);
  std::vector<std::uint64_t> hash(n, prefix_hash_seed());
  std::size_t dropped = 0;
  CheckpointBlock adopted{block.fingerprint, block.nprocs, {}};
  for (const TraceCheckpoint& c : block.checkpoints) {
    bool ok = c.ranks.size() == n &&
              (adopted.checkpoints.empty() || c.time > adopted.checkpoints.back().time);
    for (std::size_t r = 0; r < n && c.ranks.size() == n; ++r) {
      const CkptRankState& st = c.ranks[r];
      const std::vector<tit::Action>& seq = trace.actions(static_cast<int>(r));
      if (st.position > seq.size() || st.position < pos[r]) {
        ok = false;
        continue;
      }
      while (pos[r] < st.position) {
        hash[r] = titio::fold_action_hash(hash[r], seq[static_cast<std::size_t>(pos[r])]);
        ++pos[r];
      }
      if (hash[r] != st.prefix_hash) ok = false;
    }
    if (ok) {
      adopted.checkpoints.push_back(c);
    } else {
      ++dropped;
    }
  }
  if (dropped > 0) {
    TIR_LOG(Warn, "dropped " + std::to_string(dropped) +
                      " checkpoint(s) that disagree with the trace actions (trace edited "
                      "beyond a tail append?); " +
                      std::to_string(adopted.checkpoints.size()) + " adopted");
  }
  current_ = nullptr;
  block_ = std::move(adopted);
  return block_.checkpoints.size();
}

std::size_t ReplayCursor::adopt_file(const std::string& path) {
  for (const CheckpointBlock& block : titio::read_checkpoints(path)) {
    if (block.fingerprint == fingerprint_) return adopt(block);
  }
  return 0;
}

bool ReplayCursor::save(const std::string& path) const {
  if (block_.checkpoints.empty()) return false;
  titio::append_checkpoints(path, {block_});
  return true;
}

void ReplayCursor::seek(double t) { current_ = nearest_before(block_, t); }

core::ReplayResult ReplayCursor::run(double stop_time, obs::Sink* sink) {
  core::ReplayConfig cfg = config_;
  cfg.sink = sink;
  cfg.stop_time = stop_time;
  cfg.resume = current_;
  titio::SharedTrace::Cursor source = trace_.cursor();
  return core::replay(backend_, source, platform_, cfg);
}

QueryResult ReplayCursor::query(double from, double to) {
  if (to < from || from < 0.0) {
    throw ConfigError("query window is inverted or negative: [" + std::to_string(from) + ", " +
                      std::to_string(to) + "]");
  }
  seek(from);
  obs::TimelineSink sink;
  QueryResult q;
  q.from = from;
  q.to = to;
  q.result = run(to, &sink);
  q.timelines.resize(static_cast<std::size_t>(nprocs()));
  for (int r = 0; r < nprocs() && r < sink.nranks(); ++r) {
    q.timelines[static_cast<std::size_t>(r)] = obs::slice(sink.intervals(r), from, to);
  }
  return q;
}

}  // namespace tir::ckpt
