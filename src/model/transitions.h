// Model-checker transition table: how the controlled scheduler and the
// static schedule matcher treat each communication op. Every obs::OpKind
// must appear here explicitly (lint rule opid-coverage, mirroring the
// HB-edge table in check/race_detector.cpp) so a future op cannot silently
// get no scheduling/matching semantics.
#pragma once

#include "obs/events.h"

namespace hds::model {

/// Scheduling/matching class of an op.
enum class Transition : u32 {
  Local = 0,    ///< no blocking site, no cross-rank matching obligation
  Collective,   ///< two-barrier arena op: must match across all members
  SendLike,     ///< enqueues into a peer mailbox; pairs with a RecvLike
  RecvLike,     ///< blocks on a mailbox channel; pairs with a SendLike
  Rendezvous,   ///< recovery agreement: full-team blocking rendezvous
  Transfer,     ///< charged transfer outside the mailbox (checkpoint I/O)
};

/// Exhaustive OpKind -> Transition mapping (no default: -Wswitch keeps it
/// in sync with the enum; lint keeps it in sync with the matcher/explorer).
constexpr Transition transition_of(obs::OpKind op) {
  switch (op) {
    case obs::OpKind::None: return Transition::Local;
    case obs::OpKind::Barrier: return Transition::Collective;
    case obs::OpKind::Broadcast: return Transition::Collective;
    case obs::OpKind::Allreduce: return Transition::Collective;
    case obs::OpKind::Allgather: return Transition::Collective;
    case obs::OpKind::Allgatherv: return Transition::Collective;
    case obs::OpKind::Gatherv: return Transition::Collective;
    case obs::OpKind::Alltoall: return Transition::Collective;
    case obs::OpKind::Alltoallv: return Transition::Collective;
    case obs::OpKind::Send: return Transition::SendLike;
    case obs::OpKind::Recv: return Transition::RecvLike;
    case obs::OpKind::Compute: return Transition::Local;
    case obs::OpKind::Agree: return Transition::Rendezvous;
    case obs::OpKind::Checkpoint: return Transition::Transfer;
    case obs::OpKind::SampleGather: return Transition::Collective;
  }
  return Transition::Local;
}

}  // namespace hds::model
