// Max-min fair bandwidth sharing with per-flow rate caps.
//
// Implements progressive filling: repeatedly find the most constrained
// resource (a link's fair share or a flow's own cap), freeze the flows it
// binds, subtract their consumption, and continue until every flow has a
// rate.  This is the fluid network model SimGrid's kernel popularized; it is
// what makes contention simulation tractable compared to packet-level
// simulation (cf. the paper's related-work discussion).
//
// Two entry points:
//
//   * solve() — the stateless batch reference: hand it every flow, get every
//     rate.  O(rounds * sum(route lengths)) per call.
//
//   * the persistent flow set (add_flow / remove_flow / solve_partial) — the
//     incremental kernel.  The solver keeps the flow/link sharing graph
//     between calls; a mutation dirties only the links it touches, and
//     solve_partial() re-solves just the connected component(s) reachable
//     from dirty links, leaving every other flow's rate untouched.  Because
//     progressive filling never moves bandwidth between disconnected
//     components, a component-local solve is *exact*, not an approximation:
//     solve_partial() after any mutation sequence yields bit-identical rates
//     to a from-scratch solve() over the same flows (tested in
//     tests/property).  solve_all() re-solves every flow over every link
//     through the same filling core and is the reference the differential
//     engine test pins the incremental path against.
//
//     Slack links.  A link whose capacity exceeds the sum of its member
//     flows' caps by more than kSlackMargin can never bind: it never sets a
//     filling level and never freezes a flow.  solve_partial() therefore
//     neither walks through a slack link (it does not join flows into one
//     component) nor fills over it, and a mutation dirties a link only if
//     the link is non-slack before or after it.  A flow whose every link is
//     slack runs at exactly its cap without entering filling.  The verdict
//     is re-derived from the link's member list whenever a mutation of that
//     link could flip it, never kept as a running sum
//     (docs/simulation_kernel.md, "Slack links").
//
// The Solver owns scratch buffers so steady-state solving does not allocate;
// shrink_to_fit() releases their high-water-mark capacity between traces.
//
// Thread safety: all state (flow set, sharing graph, scratch buffers) is
// instance-local and there are no statics, so distinct Solver instances may
// run on distinct threads concurrently — which is how parallel sweep
// sessions coexist.  A single instance is not synchronized; it belongs to
// one engine on one thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "platform/platform.hpp"
#include "sim/pool.hpp"

namespace tir::sim {

struct FlowSpec {
  std::span<const platform::LinkId> route;  ///< links traversed
  double cap = 0.0;                         ///< per-flow rate bound (bytes/s)
};

class MaxMinSolver {
 public:
  /// Prepare for a platform with `link_count` links of the given capacities.
  /// Drops any persistent flows from a previous platform.
  void reset_links(std::span<const platform::Link> links);

  /// Compute max-min fair rates. `rates_out` must have flows.size() entries.
  /// Link capacities are taken from the last reset_links() call.  Stateless:
  /// ignores (and does not disturb) the persistent flow set.
  void solve(std::span<const FlowSpec> flows, std::span<double> rates_out);

  // --- persistent incremental flow set ------------------------------------

  /// Register a flow crossing `route` with per-flow cap `cap` (> 0, finite).
  /// The route is copied.  Returns a dense id, reused after remove_flow().
  /// The flow has no rate until the next solve_partial()/solve_all() call
  /// (it is part of the dirty component by construction).
  int add_flow(std::span<const platform::LinkId> route, double cap);

  /// Unregister a flow; its links' component is dirtied.
  void remove_flow(int id);

  /// Rate assigned by the last solve that visited this flow.
  double rate(int id) const { return flow_rate_[static_cast<std::size_t>(id)]; }

  /// Number of currently registered flows.
  std::size_t active_flows() const { return active_count_; }

  /// Re-solve only the connected component(s) of the sharing graph touched
  /// by add_flow/remove_flow since the last solve.  Returns the ids of flows
  /// whose rate changed, in ascending id order; the span is valid until the
  /// next mutation or solve.  Flows outside dirty components are not even
  /// visited.
  std::span<const int> solve_partial();

  /// Reference path: re-solve every registered flow through the same
  /// component-solve core.  Same return contract as solve_partial().
  std::span<const int> solve_all();

  /// Release the high-water-mark capacity of every scratch buffer and of the
  /// flow registry's free slots.  Long multi-trace sessions call this
  /// between traces so one huge solve does not pin peak memory forever.
  /// Registered flows and their rates are preserved.
  void shrink_to_fit();

  /// Capacity footprint (bytes) of the solver-owned buffers; lets tests and
  /// memory dashboards observe the effect of shrink_to_fit().
  std::size_t scratch_bytes() const;

  /// Instrumentation for benches and the docs' invariant checks.
  struct Counters {
    std::uint64_t partial_solves = 0;   ///< solve_partial() calls
    std::uint64_t full_solves = 0;      ///< solve_all() calls
    std::uint64_t flows_visited = 0;    ///< flows re-solved across all calls
    std::uint64_t rate_changes = 0;     ///< rates that actually changed
  };
  const Counters& counters() const { return counters_; }

 private:
  /// One entry of a link's membership list: the flow and which position of
  /// the flow's route this link is (so swap-erase can fix the moved entry's
  /// back-pointer in O(1)).
  struct LinkEntry {
    std::int32_t flow = -1;
    std::int32_t pos = -1;
  };

  void next_epoch();
  void mark_dirty(platform::LinkId l);
  /// Re-derives link `l`'s slack verdict from its member list after a flow
  /// was `added` to or removed from it, and dirties `l` unless it is slack
  /// both before and after.
  void update_slack(platform::LinkId l, bool added);
  /// BFS over the bipartite flow/link graph, seeded from the queued new
  /// flows and the flows on dirty links, expanding through non-slack links
  /// only.  Fills affected_ with the reachable flows that cross a non-slack
  /// link, sorted ascending, and prepares touched_links_ (the non-slack
  /// links reached) and the per-link filling scratch as it goes, giving
  /// slack route links an infinite remaining capacity; a reached flow on
  /// slack links only is set to its cap on the spot.
  void collect_affected();
  /// Prepares the per-link scratch for `ids`' links, then run_filling().
  void solve_subset(std::span<const int> ids);
  /// Progressive filling over `ids` (sorted ascending), assumed to be a
  /// union of whole components whose link scratch is prepared.  Updates
  /// flow_rate_ and appends the ids whose rate changed to changed_.
  void run_filling(std::span<const int> ids);

  std::vector<double> link_capacity_;   // static capacities
  std::vector<double> link_remaining_;  // scratch: capacity left this solve
  std::vector<int> link_nflows_;        // scratch: unfrozen flows per link
  std::vector<char> flow_frozen_;       // scratch (batch solve: per flow;
                                        // subset solve: per subset position)

  // Persistent sharing graph, struct-of-arrays.  A flow id keys four
  // parallel structures: its route and per-link membership positions live as
  // arena slots (one flat buffer each, no per-flow heap vectors), its cap
  // and rate in plain parallel arrays.  Links mirror this: one arena slot of
  // LinkEntry per link.  The re-solve loop then walks contiguous memory
  // instead of chasing a vector-of-vectors.
  SpanArena<platform::LinkId> routes_;   // per flow: links traversed
  SpanArena<std::int32_t> route_slots_;  // per flow: index in link's members
  std::vector<double> flow_cap_;
  std::vector<double> flow_rate_;
  std::vector<char> flow_active_;
  std::vector<int> free_ids_;
  SpanArena<LinkEntry> link_flows_;  // per link: active flows crossing it
  std::size_t active_count_ = 0;

  // Dirty tracking and solve scratch.
  std::vector<char> link_slack_;  // per link: capacity > Σ member caps · (1 + margin)
  std::vector<char> link_dirty_;
  std::vector<platform::LinkId> dirty_links_;
  std::vector<int> new_flows_;  // added since the last solve (may hold removed ids)
  std::vector<std::uint32_t> link_mark_;  // epoch stamps (BFS + reset)
  std::vector<std::uint32_t> flow_mark_;
  std::uint32_t epoch_ = 0;
  std::vector<int> affected_;                    // flow ids to re-solve
  std::vector<platform::LinkId> touched_links_;  // links of the subset
  std::vector<int> changed_;                     // result of the last solve

  Counters counters_;
};

}  // namespace tir::sim
