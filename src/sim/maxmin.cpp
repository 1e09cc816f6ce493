#include "sim/maxmin.hpp"

#include <algorithm>
#include <limits>

#include "base/error.hpp"

namespace tir::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative headroom a link's capacity must have over the sum of its member
/// flows' caps to count as slack.  It must exceed the 1e-12 freeze epsilon
/// with room for the rounding of `remaining -= level` over a solve's rounds
/// (docs/simulation_kernel.md, "Slack links").
constexpr double kSlackMargin = 1e-9;

template <class V>
std::size_t capacity_bytes(const V& v) {
  return v.capacity() * sizeof(typename V::value_type);
}

/// Ascending sort for the solver's id lists.  Components are tiny for
/// point-to-point traffic (a handful of flows), so the common case takes an
/// inlined insertion sort instead of paying std::sort's dispatch; the result
/// is the same total order either way.
inline void sort_ids(std::vector<int>& v) {
  if (v.size() < 32) {
    for (std::size_t i = 1; i < v.size(); ++i) {
      const int x = v[i];
      std::size_t j = i;
      for (; j > 0 && v[j - 1] > x; --j) v[j] = v[j - 1];
      v[j] = x;
    }
    return;
  }
  std::sort(v.begin(), v.end());
}
}  // namespace

void MaxMinSolver::reset_links(std::span<const platform::Link> links) {
  link_capacity_.resize(links.size());
  link_slack_.resize(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    link_capacity_[i] = links[i].bandwidth;
    link_slack_[i] = links[i].bandwidth > 0.0 ? 1 : 0;  // no members yet
  }
  link_remaining_.resize(links.size());
  link_nflows_.assign(links.size(), 0);
  // A new platform invalidates the persistent flow set.
  routes_.reset();
  route_slots_.reset();
  flow_cap_.clear();
  flow_rate_.clear();
  flow_active_.clear();
  free_ids_.clear();
  link_flows_.reset();
  link_flows_.ensure_slots(links.size());
  active_count_ = 0;
  link_dirty_.assign(links.size(), 0);
  dirty_links_.clear();
  new_flows_.clear();
  link_mark_.assign(links.size(), 0);
  flow_mark_.clear();
  epoch_ = 0;
  changed_.clear();
}

void MaxMinSolver::solve(std::span<const FlowSpec> flows, std::span<double> rates_out) {
  TIR_ASSERT(rates_out.size() == flows.size());
  const std::size_t nf = flows.size();
  if (nf == 0) return;

  link_remaining_ = link_capacity_;
  std::fill(link_nflows_.begin(), link_nflows_.end(), 0);
  flow_frozen_.assign(nf, 0);

  for (const FlowSpec& f : flows) {
    for (const platform::LinkId l : f.route) {
      TIR_ASSERT(static_cast<std::size_t>(l) < link_nflows_.size());
      ++link_nflows_[static_cast<std::size_t>(l)];
    }
  }

  std::size_t unfrozen = nf;
  while (unfrozen > 0) {
    // The binding constraint this round: the smallest of (a) any link's fair
    // share among its unfrozen flows, (b) any unfrozen flow's own cap.
    double level = kInf;
    for (std::size_t l = 0; l < link_remaining_.size(); ++l) {
      if (link_nflows_[l] > 0) {
        level = std::min(level, link_remaining_[l] / link_nflows_[l]);
      }
    }
    bool cap_binds = false;
    for (std::size_t i = 0; i < nf; ++i) {
      if (flow_frozen_[i] == 0 && flows[i].cap <= level) {
        level = flows[i].cap;
        cap_binds = true;
      }
    }
    TIR_ASSERT(level < kInf);

    // Freeze every flow bound at this level: flows whose cap equals the
    // level, and flows crossing a link saturated at this level.
    bool froze_someone = false;
    for (std::size_t i = 0; i < nf; ++i) {
      if (flow_frozen_[i] != 0) continue;
      bool bound = cap_binds && flows[i].cap <= level * (1.0 + 1e-12);
      if (!bound) {
        for (const platform::LinkId l : flows[i].route) {
          const auto li = static_cast<std::size_t>(l);
          if (link_remaining_[li] / link_nflows_[li] <= level * (1.0 + 1e-12)) {
            bound = true;
            break;
          }
        }
      }
      if (bound) {
        rates_out[i] = level;
        flow_frozen_[i] = 1;
        froze_someone = true;
        --unfrozen;
        for (const platform::LinkId l : flows[i].route) {
          const auto li = static_cast<std::size_t>(l);
          link_remaining_[li] = std::max(0.0, link_remaining_[li] - level);
          --link_nflows_[li];
        }
      }
    }
    TIR_ASSERT(froze_someone);  // progress guarantee
  }
}

// ---------------------------------------------------------------------------
// Persistent incremental flow set.
// ---------------------------------------------------------------------------

void MaxMinSolver::next_epoch() {
  // Wrap-safe: after 2^32 solves the stale marks could alias a reused epoch
  // value, so clear them and restart rather than trust the collision odds.
  if (++epoch_ == 0) {
    std::fill(link_mark_.begin(), link_mark_.end(), 0);
    std::fill(flow_mark_.begin(), flow_mark_.end(), 0);
    epoch_ = 1;
  }
}

void MaxMinSolver::mark_dirty(platform::LinkId l) {
  const auto li = static_cast<std::size_t>(l);
  if (link_dirty_[li] != 0) return;
  link_dirty_[li] = 1;
  dirty_links_.push_back(l);
}

void MaxMinSolver::update_slack(platform::LinkId l, bool added) {
  const auto li = static_cast<std::size_t>(l);
  // An add only raises the load and a removal only lowers it: a binding
  // link stays binding on an add, a slack one slack on a removal.
  if (added == (link_slack_[li] == 0)) {
    if (added) mark_dirty(l);
    return;
  }
  // Exact: summed afresh from the member list.  A running total would let a
  // 1e18 cap cancel the small caps beside it when it leaves.  A partial sum
  // of caps never exceeds the whole, so the sum stops once it binds.
  const double capacity = link_capacity_[li];
  double load = 0.0;
  for (const LinkEntry& e : link_flows_.get(static_cast<std::int32_t>(l))) {
    load += flow_cap_[static_cast<std::size_t>(e.flow)];
    if (capacity <= load * (1.0 + kSlackMargin)) break;
  }
  const char was_slack = link_slack_[li];
  link_slack_[li] = capacity > load * (1.0 + kSlackMargin) ? 1 : 0;
  if (was_slack == 0 || link_slack_[li] == 0) mark_dirty(l);
}

int MaxMinSolver::add_flow(std::span<const platform::LinkId> route, double cap) {
  TIR_ASSERT(cap > 0.0 && cap < kInf);
  std::int32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = routes_.make_slot();
    route_slots_.make_slot();
    flow_cap_.push_back(0.0);
    flow_rate_.push_back(0.0);
    flow_active_.push_back(0);
    flow_mark_.push_back(0);
  }
  const auto fi = static_cast<std::size_t>(id);
  routes_.assign(id, route);
  const std::span<std::int32_t> slots =
      route_slots_.resize_slot(id, static_cast<std::uint32_t>(route.size()));
  flow_cap_[fi] = cap;
  flow_rate_[fi] = 0.0;
  flow_active_[fi] = 1;
  for (std::size_t p = 0; p < route.size(); ++p) {
    const platform::LinkId l = route[p];
    const auto li = static_cast<std::int32_t>(l);
    TIR_ASSERT(static_cast<std::size_t>(li) < link_flows_.slot_count());
    slots[p] = static_cast<std::int32_t>(
        link_flows_.append(li, LinkEntry{id, static_cast<std::int32_t>(p)}));
    update_slack(l, true);
  }
  // Queued on its own: a flow on slack links only dirties nothing.
  new_flows_.push_back(id);
  ++active_count_;
  return id;
}

void MaxMinSolver::remove_flow(int id) {
  TIR_ASSERT(id >= 0 && static_cast<std::size_t>(id) < flow_cap_.size());
  const auto fi = static_cast<std::size_t>(id);
  TIR_ASSERT(flow_active_[fi] != 0);
  const std::span<const platform::LinkId> route = routes_.get(id);
  const std::span<const std::int32_t> slots = route_slots_.get(id);
  for (std::size_t p = 0; p < route.size(); ++p) {
    const auto li = static_cast<std::int32_t>(route[p]);
    const auto pos = static_cast<std::uint32_t>(slots[p]);
    TIR_ASSERT(pos < link_flows_.size(li) && link_flows_.at(li, pos).flow == id);
    // Swap-erase; if another entry was moved into the hole, fix its
    // back-pointer.
    if (const LinkEntry* const moved = link_flows_.swap_erase_get(li, pos)) {
      route_slots_.at(moved->flow, static_cast<std::uint32_t>(moved->pos)) =
          static_cast<std::int32_t>(pos);
    }
    update_slack(route[p], false);
  }
  routes_.clear_slot(id);
  route_slots_.clear_slot(id);
  flow_active_[fi] = 0;
  flow_rate_[fi] = 0.0;
  --active_count_;
  free_ids_.push_back(id);
}

void MaxMinSolver::collect_affected() {
  affected_.clear();
  touched_links_.clear();
  // Epoch-stamped BFS over the bipartite sharing graph: a dirty link pulls
  // in every flow crossing it; each such flow pulls in the rest of its
  // route; repeat.  Slack links never bind, so the walk does not expand
  // through them: the fixpoint is the union of the components, joined by
  // non-slack links only, that the mutations since the last solve touched.
  //
  // The BFS visits every component link and every component flow exactly
  // once, so it doubles as the filling prepare pass: each first-seen
  // non-slack link's scratch is reset here and each visited flow counts
  // itself onto its non-slack links, leaving touched_links_/link_remaining_/
  // link_nflows_ ready for run_filling() with no second pass over the routes.
  next_epoch();
  const auto touch = [this](platform::LinkId l) {
    const auto li = static_cast<std::size_t>(l);
    if (link_mark_[li] == epoch_) return;
    link_mark_[li] = epoch_;
    link_remaining_[li] = link_capacity_[li];
    link_nflows_[li] = 0;
    touched_links_.push_back(l);
  };
  const auto visit = [this, &touch](int id) {
    const auto fi = static_cast<std::size_t>(id);
    if (flow_mark_[fi] == epoch_) return;
    flow_mark_[fi] = epoch_;
    bool coupled = false;
    for (const platform::LinkId l : routes_.get(id)) {
      const auto li = static_cast<std::size_t>(l);
      if (link_slack_[li] == 0) {
        touch(l);
        coupled = true;
      } else if (link_mark_[li] != epoch_) {
        // Not walked and not in touched_links_; an infinite remaining
        // capacity keeps its share above every level, so filling passes
        // over it without a check.
        link_mark_[li] = epoch_;
        link_remaining_[li] = kInf;
        link_nflows_[li] = 0;
      }
      ++link_nflows_[li];
    }
    if (coupled) {
      affected_.push_back(id);
    } else if (flow_rate_[fi] != flow_cap_[fi]) {
      // Nothing on its route can bind: filling would freeze it at its cap.
      flow_rate_[fi] = flow_cap_[fi];
      changed_.push_back(id);
      ++counters_.rate_changes;
    }
  };
  for (const int id : new_flows_) {
    if (flow_active_[static_cast<std::size_t>(id)] != 0) visit(id);
  }
  new_flows_.clear();
  for (const platform::LinkId l : dirty_links_) {
    const auto li = static_cast<std::size_t>(l);
    link_dirty_[li] = 0;
    if (link_slack_[li] == 0) {
      touch(l);
    } else {
      // Turned slack by a removal: its survivors may rise, but it couples
      // nothing any more.
      for (const LinkEntry& e : link_flows_.get(static_cast<std::int32_t>(l))) visit(e.flow);
    }
  }
  dirty_links_.clear();
  // touched_links_ doubles as the BFS queue of links to expand; expanded,
  // it is exactly the component's non-slack link set.
  for (std::size_t head = 0; head < touched_links_.size(); ++head) {
    for (const LinkEntry& e : link_flows_.get(static_cast<std::int32_t>(touched_links_[head]))) {
      visit(e.flow);
    }
  }
  // A deterministic flow order makes the partial path reproduce the full
  // path's arithmetic freeze-for-freeze (see run_filling).
  sort_ids(affected_);
}

std::span<const int> MaxMinSolver::solve_partial() {
  ++counters_.partial_solves;
  changed_.clear();
  if (dirty_links_.empty() && new_flows_.empty()) return changed_;
  collect_affected();  // also prepares the link scratch (see its comment)
  run_filling(affected_);
  // changed_ accumulates in visit and freeze order; hand it back sorted by
  // id so the engine's key updates are ordered identically on both paths.
  sort_ids(changed_);
  return changed_;
}

std::span<const int> MaxMinSolver::solve_all() {
  ++counters_.full_solves;
  changed_.clear();
  // Reference path: every active flow, ascending id, through the same
  // component-solve core the partial path uses.
  affected_.clear();
  for (std::size_t i = 0; i < flow_active_.size(); ++i) {
    if (flow_active_[i] != 0) affected_.push_back(static_cast<int>(i));
  }
  for (const platform::LinkId l : dirty_links_) link_dirty_[static_cast<std::size_t>(l)] = 0;
  dirty_links_.clear();
  new_flows_.clear();
  solve_subset(affected_);
  sort_ids(changed_);
  return changed_;
}

void MaxMinSolver::solve_subset(std::span<const int> ids) {
  // Reset the per-link scratch for exactly the links the subset crosses.
  // Progressive filling never moves bandwidth between disconnected
  // components, so links outside the subset are irrelevant — this is what
  // makes the partial solve exact and O(component), not O(platform).
  // (solve_partial() skips this pass: its BFS prepares the same state.)
  next_epoch();
  touched_links_.clear();
  for (const int id : ids) {
    for (const platform::LinkId l : routes_.get(id)) {
      const auto li = static_cast<std::size_t>(l);
      if (link_mark_[li] != epoch_) {
        link_mark_[li] = epoch_;
        touched_links_.push_back(l);
        link_remaining_[li] = link_capacity_[li];
        link_nflows_[li] = 0;
      }
      ++link_nflows_[li];
    }
  }
  run_filling(ids);
}

void MaxMinSolver::run_filling(std::span<const int> ids) {
  const std::size_t nf = ids.size();
  if (nf == 0) return;
  counters_.flows_visited += nf;

  // All per-flow state the rounds read (cap, rate, route) lives in flat
  // struct-of-arrays storage keyed by flow id, so the scans below walk
  // contiguous memory rather than chasing per-flow heap vectors.
  flow_frozen_.assign(nf, 0);
  std::size_t unfrozen = nf;
  while (unfrozen > 0) {
    // Same round structure as the batch solve(); see above.  Levels are
    // scanned over the touched links and the subset's caps only.
    double level = kInf;
    for (const platform::LinkId l : touched_links_) {
      const auto li = static_cast<std::size_t>(l);
      if (link_nflows_[li] > 0) level = std::min(level, link_remaining_[li] / link_nflows_[li]);
    }
    bool cap_binds = false;
    for (std::size_t i = 0; i < nf; ++i) {
      if (flow_frozen_[i] == 0 && flow_cap_[static_cast<std::size_t>(ids[i])] <= level) {
        level = flow_cap_[static_cast<std::size_t>(ids[i])];
        cap_binds = true;
      }
    }
    TIR_ASSERT(level < kInf);

    bool froze_someone = false;
    const double level_tol = level * (1.0 + 1e-12);
    for (std::size_t i = 0; i < nf; ++i) {
      if (flow_frozen_[i] != 0) continue;
      const auto fi = static_cast<std::size_t>(ids[i]);
      const std::span<const platform::LinkId> route = routes_.get(ids[i]);
      bool bound = cap_binds && flow_cap_[fi] <= level_tol;
      if (!bound) {
        for (const platform::LinkId l : route) {
          const auto li = static_cast<std::size_t>(l);
          if (link_remaining_[li] / link_nflows_[li] <= level_tol) {
            bound = true;
            break;
          }
        }
      }
      if (bound) {
        if (flow_rate_[fi] != level) {
          flow_rate_[fi] = level;
          changed_.push_back(ids[i]);
          ++counters_.rate_changes;
        }
        flow_frozen_[i] = 1;
        froze_someone = true;
        --unfrozen;
        for (const platform::LinkId l : route) {
          const auto li = static_cast<std::size_t>(l);
          link_remaining_[li] = std::max(0.0, link_remaining_[li] - level);
          --link_nflows_[li];
        }
      }
    }
    TIR_ASSERT(froze_someone);  // progress guarantee
  }
}

void MaxMinSolver::shrink_to_fit() {
  link_capacity_.shrink_to_fit();
  link_remaining_.shrink_to_fit();
  link_nflows_.shrink_to_fit();
  flow_frozen_.clear();
  flow_frozen_.shrink_to_fit();
  // Registry: drop free slots entirely when no flow is active (the common
  // between-traces case); otherwise repack the arenas — removed flows'
  // slots were cleared at remove time, so repacking reclaims both their
  // route storage and every relocation hole.
  if (active_count_ == 0) {
    const std::size_t links = link_flows_.slot_count();
    routes_.reset();
    route_slots_.reset();
    flow_cap_.clear();
    flow_rate_.clear();
    flow_active_.clear();
    free_ids_.clear();
    flow_mark_.clear();
    new_flows_.clear();  // every queued id is gone with the registry
    link_flows_.reset();
    link_flows_.ensure_slots(links);
  } else {
    routes_.shrink_to_fit();
    route_slots_.shrink_to_fit();
    link_flows_.shrink_to_fit();
  }
  flow_cap_.shrink_to_fit();
  flow_rate_.shrink_to_fit();
  flow_active_.shrink_to_fit();
  free_ids_.shrink_to_fit();
  flow_mark_.shrink_to_fit();
  link_slack_.shrink_to_fit();
  link_dirty_.shrink_to_fit();
  dirty_links_.shrink_to_fit();
  new_flows_.shrink_to_fit();
  link_mark_.shrink_to_fit();
  affected_.clear();
  affected_.shrink_to_fit();
  touched_links_.clear();
  touched_links_.shrink_to_fit();
  changed_.clear();
  changed_.shrink_to_fit();
}

std::size_t MaxMinSolver::scratch_bytes() const {
  return capacity_bytes(link_capacity_) + capacity_bytes(link_remaining_) +
         capacity_bytes(link_nflows_) + capacity_bytes(flow_frozen_) +
         routes_.capacity_bytes() + route_slots_.capacity_bytes() + capacity_bytes(flow_cap_) +
         capacity_bytes(flow_rate_) + capacity_bytes(flow_active_) + capacity_bytes(free_ids_) +
         link_flows_.capacity_bytes() + capacity_bytes(link_slack_) +
         capacity_bytes(link_dirty_) + capacity_bytes(dirty_links_) + capacity_bytes(new_flows_) +
         capacity_bytes(link_mark_) + capacity_bytes(flow_mark_) + capacity_bytes(affected_) +
         capacity_bytes(touched_links_) + capacity_bytes(changed_);
}

}  // namespace tir::sim
