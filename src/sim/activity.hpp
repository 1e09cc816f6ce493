// Activities: the units of simulated work.
//
// An Activity is something that consumes simulated time: an execution (a
// number of instructions on a core), a communication (latency followed by a
// byte transfer across a route), a timer, or a gate (a pure synchronization
// token completed explicitly, used for e.g. mailbox matching).
//
// Activities are shared because several parties may hold one: a
// communication is typically referenced by its sender, its receiver, and the
// engine's running set.  ActivityPtr is an *intrusive, non-atomic* refcount:
// an Engine and everything it owns is confined to one thread (engine.hpp),
// so the shared_ptr's atomic count and separate control block would be pure
// overhead on the per-event hot path.  An ActivityPtr must therefore only be
// copied/dropped on its engine's thread — the rule the engine already
// imposes on every object it hands out.  The block returns to the engine's
// ActivityArena on release; the arena counts live activities and, once the
// engine has orphaned it, self-destructs when the last one is released — so
// activities outliving their engine stay safe without a per-activity
// shared_ptr copy (two atomic RMWs per activity) on the hot path.
//
// At most a handful of waiters register on an activity; they are resumed in
// registration order when it completes.
//
// Progress is tracked lazily: `remaining` is exact only as of `anchor` (the
// simulated time it was last materialized), and the engine's time heap keys
// on `heap_key`, the projected completion time anchor + remaining / rate.
// Between rate changes nothing is touched — an activity whose rate never
// changes costs O(log n) over its whole lifetime, not O(steps).
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "platform/platform.hpp"
#include "sim/pool.hpp"

namespace tir::sim {

using SimTime = double;

class Engine;
struct Activity;

/// The engine's activity block source plus the lifetime state that lets
/// activities outlive their engine.  The engine holds the only long-lived
/// pointer; on destruction it either deletes the arena (no live activities)
/// or orphans it, in which case the last ActivityPtr release deletes it.
/// Confined to the engine's thread like everything else here.
struct ActivityArena {
  PoolResource<Activity> pool;
  std::uint64_t live = 0;  ///< activities allocated and not yet released
  bool orphaned = false;   ///< engine destroyed; last release deletes this
};

/// Intrusive refcounted handle to an Activity (see the header comment for
/// the single-thread confinement rule).  Interface-compatible with the
/// shared_ptr it replaced: copy/move, get(), ->, bool, nullptr compares.
class ActivityPtr {
 public:
  ActivityPtr() = default;
  ActivityPtr(std::nullptr_t) {}  // NOLINT
  explicit ActivityPtr(Activity* acquired);
  ActivityPtr(const ActivityPtr& other);
  ActivityPtr(ActivityPtr&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
  ActivityPtr& operator=(const ActivityPtr& other);
  ActivityPtr& operator=(ActivityPtr&& other) noexcept;
  ~ActivityPtr();

  Activity* get() const { return p_; }
  Activity& operator*() const { return *p_; }
  Activity* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  void reset();

  friend bool operator==(const ActivityPtr& a, const ActivityPtr& b) { return a.p_ == b.p_; }
  friend bool operator==(const ActivityPtr& a, std::nullptr_t) { return a.p_ == nullptr; }

 private:
  Activity* p_ = nullptr;
};

/// Shared state of a wait-any group: first completed member wins.
struct WaitAnyState {
  std::coroutine_handle<> waiter;
  int completed_index = -1;  ///< index within the wait set, -1 while pending
};

/// A registered waiter: a plain coroutine, a wait-any membership, or a gate
/// to complete in turn (request objects chain onto the comm they track).
struct Waiter {
  std::coroutine_handle<> handle;       ///< set for plain waits
  std::shared_ptr<WaitAnyState> any;    ///< set for wait-any members
  int any_index = -1;                   ///< this activity's index in the set
  ActivityPtr chain;                    ///< gate completed when this one is
};

/// Waiter storage with two inline slots.  An activity almost always has at
/// most two waiters (the awaiting actor and/or a chained request gate); a
/// plain std::vector would pay one heap allocation per awaited activity on
/// the replay hot loop.  Registration order is preserved: inline slots fill
/// first, extras spill to the overflow vector.
class WaiterList {
 public:
  WaiterList() = default;
  WaiterList(const WaiterList&) = delete;
  WaiterList& operator=(const WaiterList&) = delete;
  WaiterList(WaiterList&& other) noexcept
      : size_(other.size_), overflow_(std::move(other.overflow_)) {
    for (std::uint32_t i = 0; i < size_ && i < kInline; ++i) {
      inline_[i] = std::move(other.inline_[i]);
    }
    other.size_ = 0;
    other.overflow_.clear();
  }
  WaiterList& operator=(WaiterList&&) = delete;

  void push_back(Waiter w) {
    if (size_ < kInline) {
      inline_[size_] = std::move(w);
    } else {
      overflow_.push_back(std::move(w));
    }
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::uint32_t size() const { return size_; }

  Waiter& operator[](std::uint32_t i) {
    return i < kInline ? inline_[i] : overflow_[i - kInline];
  }

 private:
  static constexpr std::uint32_t kInline = 2;

  std::uint32_t size_ = 0;
  Waiter inline_[kInline];
  std::vector<Waiter> overflow_;
};

struct Activity {
  enum class Kind : std::uint8_t { Exec, Comm, Timer, Gate };
  enum class State : std::uint8_t { Pending, Running, Done };

  Kind kind = Kind::Gate;
  State state = State::Pending;
  std::uint64_t seq = 0;      ///< creation sequence (debugging/determinism)
  std::int32_t run_slot = -1; ///< index in the engine's running set, -1 if absent
  std::int32_t heap_slot = -1;  ///< index in the engine's time heap, -1 if absent

  // Exec fields.
  std::int32_t core_index = -1;   ///< flattened (host, core) slot
  std::int32_t core_slot = -1;    ///< index in the core's exec list, -1 if absent
  double nominal_rate = 0.0;      ///< instructions/s when alone on the core

  // Comm fields.
  const platform::Route* route = nullptr;  ///< nullptr for loopback
  double latency_left = 0.0;               ///< seconds of latency still to pay
  double bw_bound = 0.0;                   ///< per-flow rate cap (bytes/s)
  std::int32_t flow_id = -1;               ///< max-min solver flow id, -1 if none
  std::int32_t xfer_slot = -1;             ///< index in the engine's transfer list
                                           ///< (latency paid, bytes moving), -1 if absent

  // Timer fields.
  SimTime deadline = 0.0;

  // Shared progress state (lazy; see the header comment).
  double remaining = 0.0;  ///< instructions or bytes left as of `anchor`
  double rate = 0.0;       ///< currently assigned rate
  SimTime anchor = 0.0;    ///< time `remaining` was last materialized
  SimTime heap_key = 0.0;  ///< projected completion time (heap ordering key)

  WaiterList waiters;

  // Intrusive lifetime state (managed by ActivityPtr / the engine).
  std::uint32_t refs = 0;          ///< outstanding ActivityPtr handles
  ActivityArena* arena = nullptr;  ///< block source; deletes itself when
                                   ///< orphaned and drained

  bool done() const { return state == State::Done; }
  bool in_latency_phase() const { return kind == Kind::Comm && latency_left > 0.0; }
};

inline ActivityPtr::ActivityPtr(Activity* acquired) : p_(acquired) {
  if (p_ != nullptr) ++p_->refs;
}

inline ActivityPtr::ActivityPtr(const ActivityPtr& other) : p_(other.p_) {
  if (p_ != nullptr) ++p_->refs;
}

inline void ActivityPtr::reset() {
  Activity* const p = p_;
  p_ = nullptr;
  if (p != nullptr && --p->refs == 0) {
    ActivityArena* const arena = p->arena;
    p->~Activity();
    arena->pool.deallocate(p);
    if (--arena->live == 0 && arena->orphaned) delete arena;
  }
}

inline ActivityPtr::~ActivityPtr() { reset(); }

inline ActivityPtr& ActivityPtr::operator=(const ActivityPtr& other) {
  ActivityPtr copy(other);
  std::swap(p_, copy.p_);
  return *this;
}

inline ActivityPtr& ActivityPtr::operator=(ActivityPtr&& other) noexcept {
  std::swap(p_, other.p_);
  return *this;
}

}  // namespace tir::sim
