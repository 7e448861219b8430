// hds::obs event vocabulary — the operation ids shared by the runtime's
// communication layer (progress ledger, fault plans, collective-mismatch
// reports) and the tracer. Keeping the enum here lets the observability
// layer name ops without depending on runtime headers; runtime/comm.h
// aliases `detail::OpId = obs::OpKind` so existing fault-plan op ids keep
// their numeric values.
#pragma once

#include <string_view>

#include "common/types.h"
#include "net/cost_model.h"
#include "net/sim.h"

namespace hds::obs {

enum class OpKind : u32 {
  None = 0,
  Barrier = 1,
  Broadcast,
  Allreduce,
  Allgather,
  Allgatherv,
  Gatherv,
  Alltoall,
  Alltoallv,
  // Ids 9 to 11 are retired: fault plans and archived traces name ops by
  // number, so the ids below keep their values.
  // Point-to-point ops: never published into a collective slot, but they
  // share the id space so fault plans and the watchdog dump can name them.
  Send = 12,
  Recv,
  /// Tracer-only pseudo-op: a charged local-computation slice between
  /// communication ops. Never passes through Comm::note_op, so fault-plan
  /// op ids are unaffected.
  Compute,
  // Recovery ops (PR 6). Appended after Compute so every pre-existing op
  // keeps its numeric id (fault-plan op ids and archived traces depend on
  // the values above).
  /// Survivor agreement round after a rank failure: the deterministic
  /// rendezvous in which the survivors adopt a common survivor set and a
  /// fresh communicator. Charged only on the recovery path.
  Agree,
  /// Superstep-boundary checkpoint: snapshot of a rank's compact sort state
  /// replicated to its buddy rank.
  Checkpoint,
  // Hybrid histogramming (PR 10). Appended after Checkpoint so existing op
  // ids keep their numeric values.
  /// Sparse sampled-histogram gather of the hybrid splitter search: each
  /// rank contributes its sampled keys plus exact below/in-range counts for
  /// the unresolved key range, concatenated on every rank. Gather-shaped
  /// (and charged as such), so it shares OpClass::Gather with Allgatherv.
  SampleGather,
};

/// Cost-model class of an op: which analytic formula family the runtime
/// charged for it. The differential profiler fits one (alpha, beta) pair per
/// class, so ops that share a class must share a cost shape. Send and Recv
/// are distinct on purpose: a Recv's charged cost is always 0 (it is a pure
/// wait for the sender's arrival time) and folding it into Send would
/// corrupt the fit. Values are frozen once released (ledgers persist them).
enum class OpClass : u32 {
  None = 0,   ///< untagged / unknown (lint-rejected in Comm op bodies)
  Sync,       ///< zero-payload rendezvous (Barrier)
  Tree,       ///< log-P tree collectives (Broadcast, Allreduce)
  Gather,     ///< allgather-shaped collectives (Allgather(v), Gatherv)
  Alltoall,   ///< dense P×P exchanges (Alltoall, Alltoallv)
  Send,       ///< charged point-to-point send (payload or header)
  Recv,       ///< point-to-point receive wait (charged cost is always 0)
  Recovery,   ///< failure detection + survivor agreement (Agree)
  Checkpoint, ///< buddy checkpoint store/fetch
  Compute,    ///< tracer-only local computation slices
};
inline constexpr u32 kOpClassCount = 10;

constexpr std::string_view op_class_name(OpClass c) {
  switch (c) {
    case OpClass::None: return "none";
    case OpClass::Sync: return "sync";
    case OpClass::Tree: return "tree";
    case OpClass::Gather: return "gather";
    case OpClass::Alltoall: return "alltoall";
    case OpClass::Send: return "send";
    case OpClass::Recv: return "recv";
    case OpClass::Recovery: return "recovery";
    case OpClass::Checkpoint: return "checkpoint";
    case OpClass::Compute: return "compute";
  }
  return "?";
}

/// Canonical OpKind → OpClass mapping. The runtime tags every note_op call
/// explicitly (lint-enforced); this mapping exists so reports and tests can
/// cross-check the tags against the vocabulary.
constexpr OpClass op_class_of(OpKind op) {
  switch (op) {
    case OpKind::None: return OpClass::None;
    case OpKind::Barrier: return OpClass::Sync;
    case OpKind::Broadcast:
    case OpKind::Allreduce: return OpClass::Tree;
    case OpKind::Allgather:
    case OpKind::Allgatherv:
    case OpKind::Gatherv:
    case OpKind::SampleGather: return OpClass::Gather;
    case OpKind::Alltoall:
    case OpKind::Alltoallv: return OpClass::Alltoall;
    case OpKind::Send: return OpClass::Send;
    case OpKind::Recv: return OpClass::Recv;
    case OpKind::Compute: return OpClass::Compute;
    case OpKind::Agree: return OpClass::Recovery;
    case OpKind::Checkpoint: return OpClass::Checkpoint;
  }
  return OpClass::None;
}

constexpr std::string_view op_kind_name(OpKind op) {
  switch (op) {
    case OpKind::None: return "none";
    case OpKind::Barrier: return "Barrier";
    case OpKind::Broadcast: return "Broadcast";
    case OpKind::Allreduce: return "Allreduce";
    case OpKind::Allgather: return "Allgather";
    case OpKind::Allgatherv: return "Allgatherv";
    case OpKind::Gatherv: return "Gatherv";
    case OpKind::Alltoall: return "Alltoall";
    case OpKind::Alltoallv: return "Alltoallv";
    case OpKind::Send: return "Send";
    case OpKind::Recv: return "Recv";
    case OpKind::Compute: return "compute";
    case OpKind::Agree: return "Agree";
    case OpKind::Checkpoint: return "Checkpoint";
    case OpKind::SampleGather: return "SampleGather";
  }
  return "?";
}

/// One slice of a rank's virtual timeline: either a communication op
/// ([entry, exit] including the wait for the collective's common exit time)
/// or a coalesced computation slice between ops. Every SimClock advance of
/// a traced rank lands in exactly one event, so per-phase sums over events
/// reconcile with SimClock::phase_seconds.
struct TraceEvent {
  OpKind op = OpKind::None;
  OpClass cls = OpClass::None;
  net::Phase phase = net::Phase::Other;
  net::Traffic traffic = net::Traffic::Control;
  double t0 = 0.0;  ///< virtual start (seconds)
  double t1 = 0.0;  ///< virtual end (seconds)
  /// Cost the model charged this rank for the op itself, excluding the wait
  /// for the collective's common exit (so model_s <= t1 - t0 always; the
  /// difference is synchronization skew). 0 for Recv and uncharged sends.
  double model_s = 0.0;
  u64 bytes = 0;    ///< payload bytes this rank contributed (received, for Recv)
  u64 tag = 0;      ///< P2P tag (Send/Recv only)
  i32 peer = -1;    ///< world rank of root/partner, -1 if none
  u32 detail_off = 0;    ///< first (peer, bytes) pair in the detail array
  u32 detail_count = 0;  ///< number of (peer, bytes) pairs
};

/// Entry of the always-on ring of recent ops, kept for the watchdog's abort
/// dump even when full tracing is disabled.
struct RingEntry {
  u64 seq = 0;  ///< 0-based index of this op within the run
  OpKind op = OpKind::None;
  net::Phase phase = net::Phase::Other;
  double t = 0.0;  ///< rank's SimClock at op entry
  u64 bytes = 0;
  u64 tag = 0;
  i32 peer = -1;
};

}  // namespace hds::obs
