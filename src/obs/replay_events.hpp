// Mapping from trace actions to observability phase events.
//
// Lives apart from sink.hpp on purpose: sink.hpp is included by tir_sim,
// which must not know about the trace layer; this header is for the replay
// back-ends (tir_core), which know both.
#pragma once

#include "obs/sink.hpp"
#include "tit/action.hpp"

namespace tir::obs {

inline RankState rank_state_of(tit::ActionType t) {
  switch (t) {
    case tit::ActionType::Compute:
      return RankState::Compute;
    case tit::ActionType::Send:
    case tit::ActionType::Isend:
      return RankState::Send;
    case tit::ActionType::Recv:
    case tit::ActionType::Irecv:
      return RankState::Recv;
    case tit::ActionType::Init:
    case tit::ActionType::Finalize:
    case tit::ActionType::Wait:
    case tit::ActionType::WaitAll:
      return RankState::Wait;  // init/finalize are zero-duration; grouped here
    case tit::ActionType::Barrier:
    case tit::ActionType::Bcast:
    case tit::ActionType::Reduce:
    case tit::ActionType::AllReduce:
    case tit::ActionType::AllToAll:
    case tit::ActionType::AllGather:
    case tit::ActionType::Gather:
    case tit::ActionType::Scatter:
      return RankState::Collective;
  }
  return RankState::Wait;
}

/// Build the phase event for `rank` replaying `a`.  `site` is the rank's
/// running collective-site counter (same numbering as the static validator);
/// pass the pre-increment value, -1 is recorded for non-collectives.
inline PhaseEvent phase_event(int rank, const tit::Action& a, std::int64_t site) {
  PhaseEvent e;
  e.rank = rank;
  e.state = rank_state_of(a.type);
  e.op = tit::action_name(a.type);
  if (a.type != tit::ActionType::Compute) {
    e.bytes = a.volume > 0.0 ? a.volume : 0.0;
    e.bytes2 = a.volume2;
  }
  e.partner = a.partner;
  e.site = tit::is_collective(a.type) ? site : -1;
  return e;
}

}  // namespace tir::obs
