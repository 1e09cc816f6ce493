// Time-Independent Trace actions.
//
// A TiT describes an MPI execution purely in terms of volumes (paper §1):
//
//   p0 compute 956140        <- instructions between two MPI calls
//   p0 send p1 1240          <- point-to-point, bytes
//   p0 recv p1 1240          <- the new (SMPI back-end) format carries the
//                               size on recv too (paper §3.3); the old
//                               format omitted it
//   p0 allreduce 4096 977536 <- communication bytes + reduction compute
//
// No timestamps anywhere: that is the whole point, and what lets a trace
// acquired on any mix of machines be replayed on any simulated platform.
#pragma once

#include <cstdint>
#include <string>

namespace tir::tit {

enum class ActionType : std::uint8_t {
  Init,
  Finalize,
  Compute,
  Send,
  Isend,
  Recv,
  Irecv,
  Wait,      ///< wait for the oldest outstanding nonblocking request
  WaitAll,   ///< wait for every outstanding nonblocking request
  Barrier,
  Bcast,
  Reduce,
  AllReduce,
  AllToAll,
  AllGather,
  Gather,
  Scatter,
};

/// Marks "size unknown" on old-format recv actions (paper §3.3 added the
/// size parameter precisely because the old format lacked it).
inline constexpr double kNoVolume = -1.0;

/// Most processes a trace may hold: Action::proc has 24 bits, so ranks run
/// from 0 to kMaxRanks - 1.  Every entry that sizes a trace or stores a rank
/// (Trace(int), the text parser, the TITB header and checkpoint blocks,
/// titio::Writer) refuses more with a typed error, so no rank ever wraps.
inline constexpr std::int32_t kMaxRanks = 1 << 23;

/// 24 bytes: the type and the issuing rank share one 32-bit word.
struct Action {
  ActionType type : 8 = ActionType::Compute;
  std::int32_t proc : 24 = -1;  ///< issuing rank, below kMaxRanks
  std::int32_t partner = -1;    ///< peer rank (p2p) or root (rooted collectives)
  double volume = 0.0;          ///< instructions (compute) or bytes (comms)
  double volume2 = 0.0;         ///< second volume: reduction compute (reduce/
                                ///< allreduce) or recv bytes (alltoall/allgather)

  bool operator==(const Action&) const = default;
};
static_assert(sizeof(Action) == 24);

/// The eight collective operations.  This is the one definition behind
/// collective-site numbering, which the static validator, both replay
/// back-ends, checkpoints and phase events must agree on.
inline bool is_collective(ActionType t) {
  switch (t) {
    case ActionType::Barrier:
    case ActionType::Bcast:
    case ActionType::Reduce:
    case ActionType::AllReduce:
    case ActionType::AllToAll:
    case ActionType::AllGather:
    case ActionType::Gather:
    case ActionType::Scatter:
      return true;
    default:
      return false;
  }
}

/// Collectives whose Action::partner names a root rank.
inline bool is_rooted(ActionType t) {
  return t == ActionType::Bcast || t == ActionType::Reduce || t == ActionType::Gather ||
         t == ActionType::Scatter;
}

const char* action_name(ActionType t);

/// Render one action in the trace text format ("p0 send p1 1240").
std::string to_line(const Action& a);

}  // namespace tir::tit
