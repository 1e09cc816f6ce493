#include "ckpt/cursor.hpp"

#include <algorithm>
#include <unordered_map>

#include "base/error.hpp"
#include "base/log.hpp"

namespace tir::ckpt {

ReplayCursor::ReplayCursor(titio::SharedTrace trace, const platform::Platform& platform,
                           core::ReplayConfig config, core::Backend backend)
    : trace_(std::move(trace)),
      platform_(platform),
      config_(std::move(config)),
      backend_(backend),
      fingerprint_(scenario_fingerprint(backend, platform, config_)) {
  // The cursor drives these itself; a caller-provided resume/stop would
  // silently skew every query.
  config_.resume = nullptr;
  config_.stop_time = std::numeric_limits<double>::infinity();
}

core::ReplayResult ReplayCursor::record(const RecordOptions& options) {
  titio::SharedTrace::Cursor source = trace_.cursor();
  RecordOutcome outcome = record_replay(source, platform_, config_, backend_, options);
  current_ = nullptr;
  set_ = std::move(outcome.set);
  return outcome.result;
}

std::size_t ReplayCursor::adopt(const CheckpointSet& set) {
  if (set.fingerprint != fingerprint_) {
    throw ConfigError("checkpoint set was recorded under a different scenario (fingerprint " +
                      std::to_string(set.fingerprint) + ", this cursor is " +
                      std::to_string(fingerprint_) + ")");
  }
  if (set.nprocs != nprocs()) {
    throw ConfigError("checkpoint set covers " + std::to_string(set.nprocs) +
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
  CheckpointSet adopted;
  adopted.fingerprint = set.fingerprint;
  adopted.nprocs = set.nprocs;
  for (const TraceCheckpoint& c : set.checkpoints) {
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
  set_ = std::move(adopted);
  return set_.checkpoints.size();
}

std::size_t ReplayCursor::adopt_file(const std::string& path) {
  for (const titio::CheckpointBlock& block : titio::read_checkpoints(path)) {
    if (block.fingerprint == fingerprint_) return adopt(CheckpointSet::from_block(block));
  }
  return 0;
}

void ReplayCursor::save(const std::string& path) const {
  titio::append_checkpoints(path, {set_.to_block()});
}

void ReplayCursor::seek(double t) { current_ = set_.nearest_before(t); }

core::ReplayResult ReplayCursor::run(double stop_time, obs::Sink* sink) {
  core::ReplayConfig cfg = config_;
  cfg.sink = sink;
  cfg.stop_time = stop_time;
  core::ResumeState resume;
  if (current_ != nullptr) {
    resume.time = current_->time;
    resume.positions.reserve(current_->ranks.size());
    for (const CkptRankState& r : current_->ranks) {
      resume.positions.push_back(r.position);
      resume.times.push_back(r.time);
      resume.collective_sites.push_back(r.collective_sites);
    }
    cfg.resume = &resume;
  }
  titio::SharedTrace::Cursor source = trace_.cursor();
  return core::replay(backend_, source, platform_, cfg);
}

core::ReplayResult ReplayCursor::run_until(double t, obs::Sink* sink) { return run(t, sink); }

core::ReplayResult ReplayCursor::run_to_end(obs::Sink* sink) {
  return run(std::numeric_limits<double>::infinity(), sink);
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

WindowSweepResult window_sweep(const titio::SharedTrace& trace,
                               const std::vector<core::Scenario>& scenarios, double from,
                               double to, const core::SweepOptions& options) {
  if (to < from || from < 0.0) {
    throw ConfigError("window_sweep window is inverted or negative: [" + std::to_string(from) +
                      ", " + std::to_string(to) + "]");
  }
  const std::size_t n = scenarios.size();
  WindowSweepResult result;
  result.windows.resize(n);
  if (n == 0) return result;

  // Scenarios with the same fingerprint share one recording: record once
  // (only up to `to` — later checkpoints can never serve this window) and
  // every member forks its windowed run from the snapshot nearest `from`.
  std::unordered_map<std::uint64_t, CheckpointSet> sets;
  std::vector<std::uint64_t> fp(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!scenarios[i].platform) continue;  // core::sweep reports it
    fp[i] = scenario_fingerprint(scenarios[i].backend, *scenarios[i].platform,
                                 scenarios[i].config);
    if (sets.count(fp[i]) != 0) continue;
    CheckpointSet set;
    try {
      titio::SharedTrace::Cursor source = trace.cursor();
      core::ReplayConfig recording = scenarios[i].config;
      recording.sink = nullptr;
      recording.resume = nullptr;
      recording.stop_time = to;
      set = record_replay(source, *scenarios[i].platform, recording, scenarios[i].backend)
                .set;
    } catch (const ConfigError&) {
      // Not seekable (contended sharing, oversubscribed hosts): this group
      // replays its window cold.  Still windowed — just no warm prefix.
    }
    sets.emplace(fp[i], std::move(set));
  }

  std::vector<core::ResumeState> resumes(n);
  std::vector<std::unique_ptr<obs::TimelineSink>> sinks(n);
  std::vector<core::Scenario> windowed = scenarios;
  for (std::size_t i = 0; i < n; ++i) {
    sinks[i] = std::make_unique<obs::TimelineSink>();
    windowed[i].config.sink = sinks[i].get();
    windowed[i].config.stop_time = to;
    windowed[i].config.resume = nullptr;
    const auto it = sets.find(fp[i]);
    if (it == sets.end()) continue;
    const TraceCheckpoint* snap = it->second.nearest_before(from);
    if (snap == nullptr) continue;
    resumes[i].time = snap->time;
    for (const CkptRankState& r : snap->ranks) {
      resumes[i].positions.push_back(r.position);
      resumes[i].times.push_back(r.time);
      resumes[i].collective_sites.push_back(r.collective_sites);
    }
    windowed[i].config.resume = &resumes[i];
  }

  result.outcomes = core::sweep(trace, windowed, options);
  for (std::size_t i = 0; i < n; ++i) {
    QueryResult& q = result.windows[i];
    q.from = from;
    q.to = to;
    if (!result.outcomes[i].ok) continue;
    q.result = result.outcomes[i].result;
    q.timelines.resize(static_cast<std::size_t>(trace.nprocs()));
    for (int r = 0; r < trace.nprocs() && r < sinks[i]->nranks(); ++r) {
      q.timelines[static_cast<std::size_t>(r)] = obs::slice(sinks[i]->intervals(r), from, to);
    }
  }
  return result;
}

}  // namespace tir::ckpt
