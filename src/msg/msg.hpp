// MSG-like CSP communication layer (the *old* replay back-end's substrate).
//
// Reproduces the semantics of SimGrid's MSG API that the paper's first
// implementation was built on (§3.3):
//   - tasks are sent to mailboxes, named once (box()) and then addressed
//     by handle;
//   - the network transfer STARTS ONLY WHEN SENDER AND RECEIVER HAVE
//     MATCHED, regardless of message size.  This is the crucial difference
//     from real MPI eager mode (where data moves as soon as the sender
//     posts) and the mechanistic source of the old framework's growing
//     overestimation of communication time (paper Fig. 3);
//   - task_isend queues the task and returns immediately, but the transfer
//     still begins at match time;
//   - no piecewise-linear protocol corrections: raw link latency/bandwidth.
//
// The API is the replay-sized one the old back-end uses: isend/send_async to
// put, match_or_post to get (a blocking send or recv is the caller's
// ctx.wait on what these return), and Rendezvous for its collectives.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>

#include "sim/engine.hpp"

namespace tir::msg {

/// The detached-send request handle: a gate completed when the transfer
/// finishes. Await it with ctx.wait(request).
using Request = sim::ActivityPtr;

/// A resolved mailbox handle (index into the Mailboxes table).  Resolving a
/// name hashes once; every subsequent operation through the handle is a
/// plain array index — the old replay back-end addresses every message by
/// mailbox, so per-operation name hashing would sit on its hot loop.
using BoxId = std::int32_t;

/// A posted (unmatched) receive, owned by the caller's coroutine frame; see
/// Mailboxes::match_or_post.
struct RecvSlot {
  platform::HostId dst_host{};
  sim::ActivityPtr matched;  ///< gate completed at match time
  sim::ActivityPtr comm;     ///< the transfer, filled at match
};

class Mailboxes {
 public:
  explicit Mailboxes(sim::Engine& engine) : engine_(engine) {}

  Mailboxes(const Mailboxes&) = delete;
  Mailboxes& operator=(const Mailboxes&) = delete;

  /// Resolves (creating on first use) a mailbox name to its stable handle.
  BoxId box(const std::string& mailbox);

  /// Fire-and-forget send: queues the task, returns a Request completed when
  /// the (match-started) transfer ends.  Awaiting it is a blocking send.
  Request isend(sim::Ctx& ctx, BoxId box, double bytes);

  /// isend without the completion Request.  The old back-end's small-message
  /// send never looks at its request, so allocating a gate per queued put
  /// just to discard it is pure hot-loop overhead; a put queued here carries
  /// no done gate and match() skips the chain.
  void send_async(sim::Ctx& ctx, BoxId box, double bytes);

  /// Two-phase receive of the oldest queued task.  If a task is already
  /// queued, matches it and returns the started transfer (await it).
  /// Otherwise posts `slot` and returns null: await slot.matched, then await
  /// slot.comm.  `slot` must outlive the match — awaiting slot.matched from
  /// the calling coroutine's own frame satisfies this.
  Request match_or_post(sim::Ctx& ctx, BoxId box, RecvSlot& slot);

 private:
  struct Put {
    platform::HostId src_host;
    double bytes;
    Request done;  ///< gate chained to the transfer
  };
  struct Box {
    std::string name;  ///< for observability events
    std::deque<Put> puts;
    std::deque<RecvSlot*> gets;
  };

  /// Create and start the transfer for a matched (put, get) pair, reporting
  /// the match to the observability sink (if one is attached).
  sim::ActivityPtr match(const Box& box, const Put& put, platform::HostId dst_host);

  sim::Engine& engine_;
  std::deque<Box> boxes_;  ///< deque: stable addresses across box creation
  std::unordered_map<std::string, BoxId> names_;
};

/// Reusable N-party synchronization: everyone blocks until all have arrived.
/// The old back-end's monolithic collective models are built on this.
class Rendezvous {
 public:
  Rendezvous(sim::Engine& engine, int parties);

  /// Returns (for everyone) once all `parties` actors have arrived.
  sim::Coro arrive_and_wait(sim::Ctx& ctx);

 private:
  sim::Engine& engine_;
  int parties_;
  int arrived_ = 0;
  sim::ActivityPtr gate_;
};

}  // namespace tir::msg
