// Activities: the units of simulated work.
//
// An Activity is something that consumes simulated time: an execution (a
// number of instructions on a core), a communication (latency followed by a
// byte transfer across a route), a timer, or a gate (a pure synchronization
// token completed explicitly, used for e.g. mailbox matching).
//
// Activities are owned by their engine.  It hands out slots from its own
// store and recycles a slot the moment its activity completes, bumping the
// slot's generation.  Everyone else (waiters, request objects, the
// protocol layers' queues) holds an ActivityPtr: a trivially copyable
// {slot, generation} handle with no refcount behind it.  A handle whose
// generation no longer matches its slot's reads as done — the activity it
// named has completed, and the slot's fields now belong to a new occupant —
// and so does a default handle.  Handles never outlive their engine.  Like
// everything else here, activities and their handles are confined to the
// engine's thread (engine.hpp).
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
#include <vector>

#include "platform/platform.hpp"

namespace tir::sim {

using SimTime = double;

struct Activity;

/// Generation-checked handle to an engine-owned Activity (see the header
/// comment).  Copying one is two plain stores; nothing is counted.
class ActivityPtr {
 public:
  ActivityPtr() = default;
  ActivityPtr(std::nullptr_t) {}  // NOLINT
  /// The engine mints handles; `generation` is the slot's current one.
  ActivityPtr(Activity* slot, std::uint32_t generation) : p_(slot), gen_(generation) {}

  /// True once the activity completed (its slot was recycled), and for a
  /// default handle.  Cheap: one load and compare.
  bool done() const;
  /// The slot.  Its fields are the handle's activity only while !done();
  /// only the engine dereferences it.
  Activity* get() const { return p_; }
  /// True only for a default handle (a stale handle still names a slot).
  friend bool operator==(const ActivityPtr& a, std::nullptr_t) { return a.p_ == nullptr; }

 private:
  Activity* p_ = nullptr;
  std::uint32_t gen_ = 0;
};

/// A registered waiter: a coroutine to resume, or a gate to complete in turn
/// (request objects chain onto the comm they track).
struct Waiter {
  std::coroutine_handle<> handle;  ///< set for plain waits
  ActivityPtr chain;               ///< gate completed when this one is
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

  void push_back(Waiter w) {
    if (size_ < kInline) {
      inline_[size_] = w;
    } else {
      overflow_.push_back(w);
    }
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::uint32_t size() const { return size_; }

  Waiter& operator[](std::uint32_t i) {
    return i < kInline ? inline_[i] : overflow_[i - kInline];
  }

  /// Empties the list (the overflow keeps its capacity for the slot's next
  /// occupant).
  void clear() {
    size_ = 0;
    overflow_.clear();
  }

 private:
  static constexpr std::uint32_t kInline = 2;

  std::uint32_t size_ = 0;
  Waiter inline_[kInline];
  std::vector<Waiter> overflow_;
};

/// An activity's plain fields: everything a recycled slot resets in place
/// for its next occupant (one aggregate assignment, no destructor or
/// constructor run).
struct ActivityFields {
  enum class Kind : std::uint8_t { Exec, Comm, Timer, Gate };
  enum class State : std::uint8_t { Pending, Running };

  Kind kind = Kind::Gate;
  State state = State::Pending;
  std::uint64_t seq = 0;        ///< creation sequence (debugging/determinism)
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

  bool in_latency_phase() const { return kind == Kind::Comm && latency_left > 0.0; }
};

struct Activity : ActivityFields {
  WaiterList waiters;
  /// Bumped each time the engine recycles the slot; a handle minted under
  /// an older value reads as done.  32 bits: a handle would have to sit
  /// idle through 2^32 reuses of one slot to alias a new occupant.
  std::uint32_t generation = 0;
};

inline bool ActivityPtr::done() const { return p_ == nullptr || p_->generation != gen_; }

}  // namespace tir::sim
