#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/log.hpp"

namespace tir::sim {

namespace {
constexpr double kWorkEps = 1e-6;   // residual instructions/bytes that count as done
constexpr double kTimeEps = 1e-12;  // relative time comparison slack
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t pair_key(platform::HostId a, platform::HostId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

// The engine casts its Activity::Kind straight into the sink's mirror enum.
static_assert(static_cast<int>(obs::ActivityKind::Exec) ==
                  static_cast<int>(Activity::Kind::Exec) &&
              static_cast<int>(obs::ActivityKind::Comm) ==
                  static_cast<int>(Activity::Kind::Comm) &&
              static_cast<int>(obs::ActivityKind::Timer) ==
                  static_cast<int>(Activity::Kind::Timer) &&
              static_cast<int>(obs::ActivityKind::Gate) ==
                  static_cast<int>(Activity::Kind::Gate));
}  // namespace

std::coroutine_handle<> Coro::promise_type::FinalAwaiter::await_suspend(Handle h) noexcept {
  promise_type& p = h.promise();
  if (p.continuation) return p.continuation;
  if (p.engine != nullptr) p.engine->on_actor_done(p.actor_index, p.exception);
  return std::noop_coroutine();
}

struct Engine::ActorRec {
  ActorRec(Engine& engine, int index, std::string name, platform::HostId host, int core)
      : ctx(engine, index, std::move(name), host, core) {}
  Ctx ctx;
  // The callable must outlive the coroutine: a coroutine lambda's captures
  // live in the closure object, which the frame references (it does not copy
  // them).  Keeping `fn` here for the actor's whole lifetime makes capturing
  // lambdas safe to spawn.
  ActorFn fn;
  Coro coro;
  bool done = false;
};

Engine::Engine(const platform::Platform& platform, EngineConfig config)
    : platform_(platform), config_(config) {
  host_core_offset_.resize(platform.host_count() + 1, 0);
  int total = 0;
  for (std::size_t h = 0; h < platform.host_count(); ++h) {
    host_core_offset_[h] = total;
    total += platform.host(static_cast<platform::HostId>(h)).cores;
  }
  host_core_offset_[platform.host_count()] = total;
  core_load_.assign(static_cast<std::size_t>(total), 0);
  core_execs_.resize(static_cast<std::size_t>(total));
  core_dirty_.assign(static_cast<std::size_t>(total), 0);
  // Flat host-pair route table up to 1024 hosts (16 MiB of slots at the
  // threshold, a few hundred KiB for typical clusters).
  constexpr std::size_t kFlatRouteHosts = 1024;
  if (platform.host_count() <= kFlatRouteHosts) {
    route_flat_.resize(platform.host_count() * platform.host_count());
  }
  solver_.reset_links(platform.links());
}

Engine::~Engine() = default;

int Engine::spawn(std::string name, platform::HostId host, int core, ActorFn fn) {
  TIR_ASSERT(core >= 0 && core < platform_.host(host).cores);
  const int index = static_cast<int>(actors_.size());
  actors_.push_back(std::make_unique<ActorRec>(*this, index, std::move(name), host, core));
  ActorRec& rec = *actors_.back();
  rec.fn = std::move(fn);
  rec.coro = rec.fn(rec.ctx);
  TIR_ASSERT(rec.coro.handle());
  rec.coro.handle().promise().engine = this;
  rec.coro.handle().promise().actor_index = index;
  ++alive_actors_;
  ready_.push_back(rec.coro.handle());
  if (config_.sink != nullptr) config_.sink->on_actor_spawn(index, rec.ctx.name(), host);
  return index;
}

Ctx& Engine::ctx(int actor_index) {
  TIR_ASSERT(actor_index >= 0 && static_cast<std::size_t>(actor_index) < actors_.size());
  return actors_[static_cast<std::size_t>(actor_index)]->ctx;
}

void Engine::on_actor_done(int actor_index, std::exception_ptr exception) {
  TIR_ASSERT(actor_index >= 0 && static_cast<std::size_t>(actor_index) < actors_.size());
  ActorRec& rec = *actors_[static_cast<std::size_t>(actor_index)];
  TIR_ASSERT(!rec.done);
  rec.done = true;
  --alive_actors_;
  if (exception && !first_error_) first_error_ = exception;
  if (config_.sink != nullptr) config_.sink->on_actor_done(actor_index, now_);
}

void Engine::run() { run_until(kInf); }

bool Engine::run_until(double stop_time) {
  TIR_ASSERT(!running_loop_);
  running_loop_ = true;
  bool stopped = false;
  const auto start = std::chrono::steady_clock::now();
  try {
    while (true) {
      drain_ready();
      if (first_error_) break;
      if (running_ == 0) {
        if (alive_actors_ > 0) report_deadlock();
        break;
      }
      if (config_.wall_clock_limit > 0.0) check_watchdog(start);
      refresh_rates();
      // Only non-progressing activities (gates) left running, or every
      // projected completion is at infinity: nothing can ever fire.
      if (heap_.empty() || heap_.top_key() == kInf) report_deadlock();
      if (heap_.top_key() > stop_time) {
        // Time bound reached: everything at or before stop_time has fired.
        // Land the clock exactly on the bound so the sink's closing event
        // clips open phases at stop_time, matching a cold replay's timeline
        // sliced to the same bound.
        stopped = true;
        now_ = stop_time;
        break;
      }
      advance_to(heap_.top_key());
    }
    if (config_.sink != nullptr) config_.sink->on_sim_end(now_);
  } catch (...) {
    // Abnormal end (deadlock, watchdog, actor exception mid-resume): the
    // sink still gets its closing event so partial timelines stay readable.
    if (config_.sink != nullptr) config_.sink->on_sim_end(now_);
    running_loop_ = false;
    throw;
  }
  running_loop_ = false;
  if (first_error_) std::rethrow_exception(first_error_);
  return !stopped;
}

void Engine::check_watchdog(const std::chrono::steady_clock::time_point& start) const {
  // One steady_clock read per event step: negligible next to the step
  // itself, and it bounds detection latency by a single step.
  const double elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();
  if (elapsed <= config_.wall_clock_limit) return;
  emit_diagnoses();
  throw WatchdogError(
      "watchdog: wall-clock limit of " + std::to_string(config_.wall_clock_limit) +
      "s exceeded (" + std::to_string(elapsed) + "s elapsed) at simulated t=" +
      std::to_string(now_) + " after " + std::to_string(steps_) + " step(s); " +
      std::to_string(alive_actors_) + " actor(s) and " + std::to_string(running_) +
      " activit(ies) still live");
}

void Engine::drain_ready() {
  while (!ready_.empty()) {
    ready_.pop_front().resume();
    if (first_error_) return;
  }
}

ActivityPtr Engine::make_activity() {
  Activity* act = nullptr;
  if (!free_slots_.empty()) {
    act = free_slots_.back();
    free_slots_.pop_back();
    // In-place reset: the waiter list was emptied at completion, so only
    // the plain fields need their defaults back.
    static_cast<ActivityFields&>(*act) = ActivityFields{};
  } else {
    if (chunk_used_ == kSlotChunk) {
      slot_chunks_.push_back(std::make_unique<Activity[]>(kSlotChunk));
      chunk_used_ = 0;
    }
    act = &slot_chunks_.back()[chunk_used_++];
    ++fresh_slots_;
  }
  return ActivityPtr(act, act->generation);
}

void Engine::mark_core_dirty(std::int32_t core) {
  const auto c = static_cast<std::size_t>(core);
  if (core_dirty_[c] != 0) return;
  core_dirty_[c] = 1;
  dirty_cores_.push_back(core);
}

void Engine::enroll_exec(Activity* a) {
  const auto c = static_cast<std::size_t>(a->core_index);
  const int load = ++core_load_[c];
  a->core_slot = static_cast<std::int32_t>(core_execs_[c].size());
  core_execs_[c].push_back(a);
  // Keyed under the load as of now — exact already when nothing else shares
  // the core (the replay common case, skipping the refresh-pass re-key).  If
  // the load changes again before the next refresh, the dirty pass re-keys
  // everyone on the core, this activity included; either way the final
  // (heap_key, seq) state is identical, and the heap pops in that total
  // order, so the simulated schedule is unaffected.
  a->rate = a->nominal_rate / load;
  a->anchor = now_;
  a->heap_key = now_ + a->remaining / a->rate;
  heap_.insert(a);
  // Only a core whose *other* occupants saw their share change needs a
  // refresh pass; alone on the core there is nobody to retime.
  if (load > 1) mark_core_dirty(a->core_index);
}

ActivityPtr Engine::start_exec(platform::HostId host, int core, double instructions,
                               double rate) {
  TIR_ASSERT(instructions >= 0.0);
  TIR_ASSERT(rate > 0.0);
  if (instructions <= kWorkEps) {
    // Done at birth: nothing to wait for, so no slot — a default handle
    // already reads as done.
    ++seq_;
    return {};
  }
  const ActivityPtr handle = make_activity();
  Activity* const act = handle.get();
  act->kind = Activity::Kind::Exec;
  act->seq = seq_++;
  act->core_index = host_core_offset_[static_cast<std::size_t>(host)] + core;
  act->nominal_rate = rate;
  act->remaining = instructions;
  start_running(*act);
  enroll_exec(act);
  return handle;
}

Engine::CachedRoute Engine::cached_route(platform::HostId src, platform::HostId dst) {
  CachedRoute* slot = nullptr;
  if (!route_flat_.empty()) {
    slot = &route_flat_[static_cast<std::size_t>(src) * platform_.host_count() +
                        static_cast<std::size_t>(dst)];
  } else {
    slot = &route_cache_[pair_key(src, dst)];
  }
  if (slot->route == nullptr) {
    route_storage_.push_back(std::make_unique<platform::Route>(platform_.route(src, dst)));
    slot->route = route_storage_.back().get();
    double min_bw = kInf;
    for (const platform::LinkId l : slot->route->links) {
      min_bw = std::min(min_bw, platform_.link(l).bandwidth);
    }
    slot->min_bw = min_bw;
  }
  return *slot;
}

ActivityPtr Engine::make_comm(platform::HostId src, platform::HostId dst, double bytes,
                              double lat_factor, double bw_factor, bool start_now) {
  TIR_ASSERT(bytes >= 0.0);
  const ActivityPtr handle = make_activity();
  Activity* const act = handle.get();
  act->kind = Activity::Kind::Comm;
  act->seq = seq_++;
  act->remaining = std::max(bytes, kWorkEps * 2);  // zero-byte comms still pay latency
  if (src == dst) {
    act->route = nullptr;
    act->latency_left = platform_.loopback_latency() * lat_factor;
    act->bw_bound = platform_.loopback_bandwidth() * bw_factor;
  } else {
    const CachedRoute cached = cached_route(src, dst);
    act->route = cached.route;
    act->latency_left = cached.route->latency * lat_factor;
    act->bw_bound = cached.min_bw * bw_factor;
  }
  TIR_ASSERT(act->bw_bound > 0.0);
  if (start_now) start_activity(handle);
  return handle;
}

ActivityPtr Engine::start_timer(double duration) {
  TIR_ASSERT(duration >= 0.0);
  const ActivityPtr handle = make_activity();
  Activity* const act = handle.get();
  act->kind = Activity::Kind::Timer;
  act->seq = seq_++;
  act->deadline = now_ + duration;
  start_running(*act);
  act->heap_key = act->deadline;
  heap_.insert(act);
  return handle;
}

ActivityPtr Engine::make_gate() {
  const ActivityPtr handle = make_activity();
  handle.get()->seq = seq_++;  // a reset slot is already a Pending gate
  return handle;
}

void Engine::start_comm(Activity* a) {
  if (a->latency_left > 0.0) {
    a->heap_key = now_ + a->latency_left;
    heap_.insert(a);
  } else {
    begin_transfer(a);
  }
}

void Engine::begin_transfer(Activity* a) {
  a->xfer_slot = static_cast<std::int32_t>(transfers_.size());
  transfers_.push_back(a);
  if (config_.sharing == Sharing::Uncontended || a->route == nullptr) {
    // No contention model applies: the flow runs at its own bound forever.
    a->rate = a->bw_bound;
    a->anchor = now_;
    a->heap_key = now_ + a->remaining / a->rate;
  } else {
    const int id = solver_.add_flow(a->route->links, a->bw_bound);
    a->flow_id = id;
    if (static_cast<std::size_t>(id) >= flow_acts_.size()) {
      flow_acts_.resize(static_cast<std::size_t>(id) + 1, nullptr);
    }
    flow_acts_[static_cast<std::size_t>(id)] = a;
    // Rate arrives with the next refresh (the flow's component is dirty by
    // construction); parked at infinity meanwhile.
    a->rate = 0.0;
    a->anchor = now_;
    a->heap_key = kInf;
  }
  if (a->heap_slot < 0) {
    heap_.insert(a);
  } else {
    heap_.update(a);  // latency phase just ended: re-key in place
  }
}

void Engine::start_activity(ActivityPtr handle) {
  TIR_ASSERT(!handle.done());
  Activity* const act = handle.get();
  TIR_ASSERT(act->state == Activity::State::Pending);
  start_running(*act);
  if (act->kind == Activity::Kind::Comm) start_comm(act);
}

void Engine::release_resources(Activity& act) {
  if (act.heap_slot >= 0) heap_.remove(&act);
  switch (act.kind) {
    case Activity::Kind::Exec: {
      const auto c = static_cast<std::size_t>(act.core_index);
      const int load = --core_load_[c];
      // Survivors' share grew; an emptied core has nobody left to retime.
      if (load > 0) mark_core_dirty(act.core_index);
      auto& list = core_execs_[c];
      const auto slot = static_cast<std::size_t>(act.core_slot);
      TIR_ASSERT(slot < list.size() && list[slot] == &act);
      if (slot != list.size() - 1) {
        list[slot] = list.back();
        list[slot]->core_slot = static_cast<std::int32_t>(slot);
      }
      list.pop_back();
      act.core_slot = -1;
      break;
    }
    case Activity::Kind::Comm:
      if (act.flow_id >= 0) {
        solver_.remove_flow(act.flow_id);
        flow_acts_[static_cast<std::size_t>(act.flow_id)] = nullptr;
        act.flow_id = -1;
      }
      if (act.xfer_slot >= 0) {
        const auto slot = static_cast<std::size_t>(act.xfer_slot);
        TIR_ASSERT(slot < transfers_.size() && transfers_[slot] == &act);
        if (slot != transfers_.size() - 1) {
          transfers_[slot] = transfers_.back();
          transfers_[slot]->xfer_slot = static_cast<std::int32_t>(slot);
        }
        transfers_.pop_back();
        act.xfer_slot = -1;
      }
      break;
    case Activity::Kind::Timer:
    case Activity::Kind::Gate:
      break;
  }
}

void Engine::complete_now(ActivityPtr handle) {
  TIR_ASSERT(!handle.done());
  Activity& act = *handle.get();
  if (act.state == Activity::State::Running) {
    --running_;
    release_resources(act);
  }
  complete(act);
}

void Engine::chain(ActivityPtr source, ActivityPtr gate) {
  if (source.done()) {
    if (!gate.done()) complete_now(gate);
  } else {
    source.get()->waiters.push_back(Waiter{{}, gate});
  }
}

void Engine::start_running(Activity& act) {
  act.state = Activity::State::Running;
  ++running_;
  if (config_.sink != nullptr) {
    config_.sink->on_activity_start(static_cast<obs::ActivityKind>(act.kind), act.seq, now_);
  }
}

void Engine::complete(Activity& act) {
  if (config_.sink != nullptr) {
    config_.sink->on_activity_finish(static_cast<obs::ActivityKind>(act.kind), act.seq, now_);
  }
  // Recycle first: from here on every handle to this activity reads done.
  // Waking the waiters allocates no activity, so the slot is not reused
  // while the loop below still walks its list.  Waiters wake in
  // registration order; a chained gate completes recursively.
  ++act.generation;
  WaiterList& waiters = act.waiters;
  for (std::uint32_t i = 0; i < waiters.size(); ++i) {
    Waiter& w = waiters[i];
    if (w.chain != nullptr) {
      if (!w.chain.done()) complete_now(w.chain);
    } else if (w.handle) {
      ready_.push_back(w.handle);
    }
  }
  waiters.clear();
  free_slots_.push_back(&act);
}

void Engine::retime(Activity* a, double new_rate) {
  // Lazy materialization: progress under the outgoing rate is folded into
  // `remaining` only here, at an actual rate change.  An activity whose rate
  // never changes is never touched between its start and its completion.
  a->remaining -= a->rate * (now_ - a->anchor);
  a->anchor = now_;
  a->rate = new_rate;
  a->heap_key = now_ + a->remaining / new_rate;
  heap_.update(a);
}

void Engine::refresh_rates() {
  if (config_.sharing == Sharing::MaxMin) {
    // Incremental: re-solve only components dirtied by flow add/remove since
    // the last step (a no-op on steps that touched no contended comm).
    // Full: reference path, every flow re-solved every step.  Both report
    // the same changed set (bit-identical rates; see maxmin.hpp), so the
    // retimes below — and hence the whole simulation — agree exactly.
    const std::span<const int> changed = config_.resolve == Resolve::Incremental
                                             ? solver_.solve_partial()
                                             : solver_.solve_all();
    for (const int id : changed) {
      Activity* const a = flow_acts_[static_cast<std::size_t>(id)];
      TIR_ASSERT(a != nullptr);
      retime(a, solver_.rate(id));
    }
  }
  // Execs: a core's sharing rate is a pure function of its load, so only
  // cores whose load changed need a pass, and only numerically changed
  // rates trigger a retime.
  for (const std::int32_t core : dirty_cores_) {
    const auto c = static_cast<std::size_t>(core);
    core_dirty_[c] = 0;
    const int load = core_load_[c];
    for (Activity* const a : core_execs_[c]) {
      const double rate = a->nominal_rate / load;
      if (rate != a->rate) retime(a, rate);
    }
  }
  dirty_cores_.clear();
}

void Engine::advance_to(double t) {
  const double dt = t - now_;
  now_ = t;
  ++steps_;
  obs::Sink* const sink = config_.sink;
  if (sink != nullptr) {
    sink->on_time_advance(now_, dt);
    // Per-link utilization accounting needs every transferring comm's
    // (rate, dt) each step; this O(transfers) walk is the price of
    // attaching a sink and is skipped entirely without one.  Emission order
    // is the transfer-list slot order, a pure function of the activity
    // add/remove sequence — identical in both Resolve modes.
    for (Activity* const a : transfers_) {
      if (a->rate > 0.0) {
        sink->on_comm_progress(
            a->route != nullptr ? std::span<const platform::LinkId>(a->route->links)
                                : std::span<const platform::LinkId>(),
            a->rate, dt);
      }
    }
  }
  const double time_slack = kTimeEps * std::max(1.0, now_);
  // Pop everything due at t.  "Due" keeps the historical tolerance: work
  // activities complete with up to kWorkEps residual (key within
  // kWorkEps/rate of t), timers and latency phases within the relative
  // time slack.  Completion mutates the heap and recycles slots, so due
  // activities are collected first.
  finished_.clear();
  while (!heap_.empty()) {
    Activity* const a = heap_.top();
    if (a->heap_key == kInf) break;  // freshly added flows park at infinity
    const double limit = (a->kind == Activity::Kind::Timer || a->in_latency_phase())
                             ? now_ + time_slack
                             : now_ + kWorkEps / a->rate;
    if (a->heap_key > limit) break;
    if (a->in_latency_phase()) {
      // Latency fully paid: the byte transfer starts now.  Under max-min
      // the new flow gets its rate at the next refresh.  The activity stays
      // in the heap and is re-keyed in place (one sift from the root rather
      // than a pop and a push); the pop order is the same (heap_key, seq)
      // order either way.
      a->latency_left = 0.0;
      begin_transfer(a);
      continue;
    }
    heap_.pop();
    a->remaining = 0.0;
    finished_.push_back(a);
  }
  for (Activity* const a : finished_) {
    --running_;
    release_resources(*a);
    complete(*a);
  }
  finished_.clear();
}

void Engine::emit_diagnoses() const {
  // Route the wait-for diagnosis of every still-blocked actor through the
  // event sink, so a wedged replay's last-known per-rank state lands in the
  // same timeline/JSON as the regular events (not only in the error text).
  if (config_.sink == nullptr) return;
  for (const auto& rec : actors_) {
    if (rec->done) continue;
    config_.sink->on_diagnosis(rec->ctx.index(), rec->ctx.name(), rec->ctx.diagnose(), now_);
  }
}

void Engine::report_deadlock() const {
  emit_diagnoses();
  // Wait-for diagnosis: one line per blocked actor, using the diagnoser the
  // higher layer installed (the replay engines report the blocking action
  // and the last completed one), so a wedged replay names who waits on
  // which mailbox/collective instead of just counting the blocked.
  constexpr int kMaxDetailed = 16;
  std::vector<std::string> blocked_names;
  std::string detail;
  int shown = 0;
  for (const auto& rec : actors_) {
    if (rec->done) continue;
    blocked_names.push_back(rec->ctx.name());
    if (shown == kMaxDetailed) continue;
    ++shown;
    detail += "\n  " + rec->ctx.name();
    const std::string diag = rec->ctx.diagnose();
    detail += diag.empty() ? ": blocked" : (": " + diag);
  }
  if (alive_actors_ > kMaxDetailed) {
    detail += "\n  ... " + std::to_string(alive_actors_ - kMaxDetailed) + " more";
  }
  if (running_ > 0) {
    detail += "\n  (" + std::to_string(running_) +
              " activit(ies) exist but none can make progress)";
  }
  throw DeadlockError("deadlock at t=" + std::to_string(now_) + ": " +
                          std::to_string(alive_actors_) + " actor(s) blocked forever" + detail,
                      std::move(blocked_names));
}

}  // namespace tir::sim
