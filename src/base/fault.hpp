// Deterministic fault injection for the service stack (docs/robustness.md,
// "Service hardening").
//
// A FaultPlan is a seeded schedule of failures: which named injection point
// misbehaves, how (EINTR storm, short write, connection reset, accept
// failure, slow-loris stall, allocation failure), and with what probability.
// Injection points are plain calls sprinkled through svc::net and
// svc::LruCache:
//
//   switch (fault::point("svc.net.write")) {
//     case fault::Kind::Eintr: errno = EINTR; continue;  // pretend the
//     ...                                                // syscall failed
//   }
//
// Determinism: whether the k-th consult of a point fires depends only on
// (plan seed, point name, k) via rng::uniform01 — never on wall clock,
// thread identity, or what other points did.  Re-running the same plan
// against the same request sequence replays the same fault schedule, which
// is what lets tests/svc/chaos_test.cpp assert bit-identical predictions
// across fifty seeded schedules.
//
// Zero overhead when disarmed: point() is one relaxed-acquire atomic load
// and a branch, the same null-guarded pattern as obs::Sink — no locks, no
// hashing, no allocation on the hot path of a production daemon.
//
// Plan spec grammar (tird --fault-plan, TIR_FAULT_PLAN):
//
//   seed=S;POINT=KIND:PROB[:MAX_FIRES];...
//
//   e.g.  seed=7;svc.net.write=short:0.2;svc.net.read=reset:0.05
//
// Separators ';' or ','.  KIND is one of eintr, eagain, short, reset,
// accept-fail, stall, alloc-fail.  PROB is in [0,1].  MAX_FIRES caps how
// often the rule fires (default 64) so probability-1 storms still terminate.
// parse() throws tir::ConfigError on anything malformed.
//
// Thread safety: arm()/disarm() may race point() from any thread — armed
// plans are kept alive for the process lifetime, so a point that loaded the
// old plan pointer finishes its consult safely.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tir::fault {

/// What an injection point is told to do this time.  None means "behave".
enum class Kind : std::uint8_t {
  None,
  Eintr,       ///< fail the syscall with EINTR once (the loop must retry)
  Eagain,      ///< fail with EAGAIN/EWOULDBLOCK (timeout path)
  ShortWrite,  ///< send at most one byte this round (partial-write path)
  Reset,       ///< connection reset: ECONNRESET on the spot
  AcceptFail,  ///< accept() fails with a transient error
  Stall,       ///< slow-loris: the site sleeps a few milliseconds
  AllocFail,   ///< allocation failure: the site throws std::bad_alloc
};

const char* kind_name(Kind kind);

/// One point's schedule within a plan.
struct Rule {
  std::string point;           ///< injection point name, e.g. "svc.net.write"
  Kind kind = Kind::None;
  double probability = 0.0;    ///< per-consult fire probability in [0,1]
  std::uint32_t max_fires = 64;  ///< termination guard for prob-1 storms
};

/// A parsed, not-yet-armed fault schedule.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse the spec grammar above; throws tir::ConfigError with the
  /// offending token on malformed input.
  static FaultPlan parse(const std::string& spec);

  std::uint64_t seed() const { return seed_; }
  const std::vector<Rule>& rules() const { return rules_; }

 private:
  std::uint64_t seed_ = 1;
  std::vector<Rule> rules_;
};

namespace detail {

struct ArmedRule {
  Kind kind = Kind::None;
  double probability = 0.0;
  std::uint32_t max_fires = 0;
  std::uint64_t stream = 0;  ///< rng::combine(plan seed, point-name hash)
  std::atomic<std::uint64_t> consults{0};
  std::atomic<std::uint32_t> fires{0};
};

struct ArmedPoint {
  std::string name;
  // Owned raw pointers into the keep-alive arena (see fault.cpp); never
  // freed while armed plans can still be observed by racing readers.
  std::vector<ArmedRule*> rules;
};

struct ArmedPlan {
  std::vector<ArmedPoint> points;
};

extern std::atomic<const ArmedPlan*> g_armed;

Kind consult(const ArmedPlan* plan, const char* point);

}  // namespace detail

/// Install `plan` as the process-wide schedule (replaces any previous one).
void arm(const FaultPlan& plan);

/// Remove the schedule; every point() returns Kind::None again.
void disarm();

/// Is any plan armed?  (Cheap; tests and stats use it.)
inline bool armed() {
  return detail::g_armed.load(std::memory_order_acquire) != nullptr;
}

/// The injection-point consult.  Disarmed: one atomic load, returns None.
inline Kind point(const char* name) {
  const detail::ArmedPlan* plan = detail::g_armed.load(std::memory_order_acquire);
  return plan == nullptr ? Kind::None : detail::consult(plan, name);
}

/// How many times any rule has fired since the current plan was armed
/// (0 when disarmed).  Lets tests assert a schedule actually did something.
std::uint64_t fired_total();

/// RAII arm/disarm for tests: parses and arms in the constructor, disarms
/// in the destructor.
class ScopedPlan {
 public:
  explicit ScopedPlan(const std::string& spec) { arm(FaultPlan::parse(spec)); }
  ~ScopedPlan() { disarm(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

}  // namespace tir::fault
