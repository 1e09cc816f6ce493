#include "obs/timeline.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace tir::obs {

TimelineSink::RankRec& TimelineSink::rank_rec(int rank) {
  TIR_ASSERT(rank >= 0);
  if (static_cast<std::size_t>(rank) >= ranks_.size()) {
    ranks_.resize(static_cast<std::size_t>(rank) + 1);
  }
  return ranks_[static_cast<std::size_t>(rank)];
}

void TimelineSink::on_actor_spawn(int actor, std::string_view name, platform::HostId host) {
  RankRec& r = rank_rec(actor);
  r.name.assign(name);
  r.host = host;
}

void TimelineSink::on_actor_done(int actor, double now) {
  (void)actor;
  end_time_ = std::max(end_time_, now);
}

void TimelineSink::on_time_advance(double now, double dt) {
  (void)dt;
  ++steps_;
  end_time_ = std::max(end_time_, now);
}

void TimelineSink::on_comm_progress(std::span<const platform::LinkId> links, double rate,
                                    double dt) {
  for (const platform::LinkId l : links) {
    TIR_ASSERT(l >= 0);
    const auto i = static_cast<std::size_t>(l);
    if (i >= links_.size()) {
      links_.resize(i + 1);
      link_stamp_.resize(i + 1, 0);
    }
    // Busy time counts each step at most once per link, however many flows
    // cross it; bytes accumulate per flow.
    if (link_stamp_[i] != steps_) {
      link_stamp_[i] = steps_;
      links_[i].busy_seconds += dt;
    }
    links_[i].bytes += rate * dt;
  }
}

void TimelineSink::on_message(int src, int dst, double bytes, bool eager, bool collective) {
  (void)src;
  (void)dst;
  if (collective) {
    ++messages_.collective_messages;
    messages_.collective_bytes += bytes;
  } else if (eager) {
    ++messages_.eager_messages;
    messages_.eager_bytes += bytes;
  } else {
    ++messages_.rendezvous_messages;
    messages_.rendezvous_bytes += bytes;
  }
}

void TimelineSink::on_phase_begin(const PhaseEvent& e, double now) {
  RankRec& r = rank_rec(e.rank);
  TIR_ASSERT(!r.open);
  TIR_ASSERT(r.intervals.empty() || r.intervals.back().end <= now);
  if (r.intervals.empty() && now > 0.0) {
    // First phase starts past t=0: a resumed replay (ckpt restore) skipped
    // the prefix.  Fill the gap so the timeline still tiles [0, end].
    Interval gap;
    gap.state = RankState::Idle;
    gap.begin = 0.0;
    gap.end = now;
    r.intervals.push_back(gap);
  }
  Interval iv;
  iv.state = e.state;
  iv.begin = now;
  iv.end = now;
  iv.op = e.op;
  iv.bytes = e.bytes;
  iv.bytes2 = e.bytes2;
  iv.partner = e.partner;
  iv.site = e.site;
  r.intervals.push_back(iv);
  r.open = true;
}

void TimelineSink::on_phase_end(int rank, double now) {
  RankRec& r = rank_rec(rank);
  TIR_ASSERT(r.open && !r.intervals.empty());
  TIR_ASSERT(now >= r.intervals.back().begin);
  r.intervals.back().end = now;
  r.open = false;
  end_time_ = std::max(end_time_, now);
}

void TimelineSink::on_warning(std::string_view text) { warnings_.emplace_back(text); }

void TimelineSink::on_diagnosis(int actor, std::string_view name, std::string_view text,
                                double now) {
  diagnoses_.push_back(Diagnosis{actor, std::string(name), std::string(text), now});
}

void TimelineSink::on_sim_end(double now) {
  end_time_ = std::max(end_time_, now);
  for (RankRec& r : ranks_) {
    // A wedged replay can end with a phase still open (the rank is blocked
    // inside it); close it at the end time so the timeline stays gap-free
    // and the last-known state is visible.
    if (r.open) {
      r.intervals.back().end = end_time_;
      r.open = false;
    }
    const double last = r.intervals.empty() ? 0.0 : r.intervals.back().end;
    if (last < end_time_) {
      Interval idle;
      idle.state = RankState::Idle;
      idle.begin = last;
      idle.end = end_time_;
      r.intervals.push_back(idle);
    }
  }
  finalized_ = true;
}

const std::vector<Interval>& TimelineSink::intervals(int rank) const {
  TIR_ASSERT(rank >= 0 && static_cast<std::size_t>(rank) < ranks_.size());
  return ranks_[static_cast<std::size_t>(rank)].intervals;
}

const std::string& TimelineSink::rank_name(int rank) const {
  TIR_ASSERT(rank >= 0 && static_cast<std::size_t>(rank) < ranks_.size());
  return ranks_[static_cast<std::size_t>(rank)].name;
}

platform::HostId TimelineSink::rank_host(int rank) const {
  TIR_ASSERT(rank >= 0 && static_cast<std::size_t>(rank) < ranks_.size());
  return ranks_[static_cast<std::size_t>(rank)].host;
}

std::vector<Interval> slice(const std::vector<Interval>& intervals, double from, double to) {
  if (to < from) throw Error("timeline slice window is inverted: [" + std::to_string(from) +
                             ", " + std::to_string(to) + "]");
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (iv.begin == iv.end) {
      // Zero-width events (eager isends) carry data but no time.  An event
      // exactly at `from` belongs to the prefix: a resumed replay completed
      // it before the snapshot and never re-emits it, so the cold slice
      // drops it too — except at from == 0, where there is no prefix.
      // Symmetrically an event exactly at `to` is dropped (it belongs to
      // the next window).  Seam events are invisible by construction.
      if ((iv.begin > from || from == 0.0) && iv.begin < to) out.push_back(iv);
      continue;
    }
    if (iv.begin >= to || iv.end <= from) continue;
    Interval clipped = iv;
    clipped.begin = std::max(iv.begin, from);
    clipped.end = std::min(iv.end, to);
    out.push_back(clipped);
  }
  return out;
}

}  // namespace tir::obs
