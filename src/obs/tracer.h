// Per-rank, append-only event tracer. Each simulated rank owns one
// RankTracer; the communication layer brackets every op with
// op_begin/op_end, and (when tracing is enabled) the rank's SimClock feeds
// every advance through on_advance so charged computation between ops
// becomes coalesced "compute" slices. There is no cross-rank locking on
// the hot path: the event buffers are written only by the owning rank's
// thread and read only after Team::run joins (the join provides the
// happens-before edge).
//
// Independently of the trace toggle, a kRingCapacity-entry ring of the
// most recent op entries is always maintained under a per-rank mutex so
// the watchdog thread can snapshot "what was this rank doing" for its
// abort dump without racing the rank.
#pragma once

#include <algorithm>
#include <array>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.h"
#include "net/sim.h"
#include "obs/events.h"

namespace hds::obs {

class RankTracer final : public net::AdvanceSink {
 public:
  /// Recent ops kept for the watchdog's abort dump.
  static constexpr usize kRingCapacity = 16;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void reset() {
    events_.clear();
    details_.clear();
    pending_open_ = false;
    compute_open_ = false;
    std::lock_guard lock(ring_mu_);
    ring_seq_ = 0;
  }

  /// A communication op starts at virtual time t. Always records into the
  /// ring; opens a trace event only when tracing is enabled. Advances
  /// between op_begin and op_end (fault stragglers, collective sync,
  /// message-arrival waits) are folded into the op's [t0, t1] span.
  void op_begin(OpKind op, OpClass cls, net::Phase phase, double t, u64 bytes,
                i32 peer, u64 tag, net::Traffic traffic) {
    {
      std::lock_guard lock(ring_mu_);
      ring_[ring_seq_ % kRingCapacity] =
          RingEntry{ring_seq_, op, phase, t, bytes, tag, peer};
      ++ring_seq_;
    }
    if (!enabled_) return;
    flush_compute();
    if (pending_open_) events_.push_back(pending_);  // defensive: unclosed op
    pending_ = TraceEvent{op,   cls,   phase,
                          traffic,
                          t,    t,     0.0,
                          bytes,
                          tag,  peer,  static_cast<u32>(details_.size() / 2),
                          0};
    pending_open_ = true;
  }

  /// Attach one (destination world rank, bytes) pair to the op in flight —
  /// the per-destination breakdown of an alltoall(v) this rank sent.
  void op_detail(i32 peer_world, u64 bytes) {
    if (!enabled_ || !pending_open_) return;
    details_.push_back(static_cast<u64>(peer_world));
    details_.push_back(bytes);
    ++pending_.detail_count;
  }

  /// Override the payload byte count of the op in flight (Recv learns its
  /// size only once the message arrives).
  void op_bytes(u64 bytes) {
    if (!enabled_ || !pending_open_) return;
    pending_.bytes = bytes;
  }

  /// Record the model cost charged for the op in flight (the epoch's
  /// root-computed cost for collectives, the p2p charge for sends). Kept
  /// separate from [t0, t1] so the differential profiler can split "what the
  /// model charged" from "what the rank waited".
  void op_model(double model_s) {
    if (!enabled_ || !pending_open_) return;
    pending_.model_s = model_s;
  }

  void op_end(double t) {
    if (!enabled_ || !pending_open_) return;
    pending_.t1 = t;
    events_.push_back(pending_);
    pending_open_ = false;
  }

  /// SimClock hook: an advance outside any op becomes (part of) a compute
  /// slice; contiguous same-phase advances coalesce into one event.
  void on_advance(net::Phase p, double t0, double t1) override {
    if (!enabled_ || pending_open_) return;
    if (compute_open_ && compute_.phase == p && compute_.t1 == t0) {
      compute_.t1 = t1;
      return;
    }
    flush_compute();
    compute_ = TraceEvent{OpKind::Compute, OpClass::Compute, p,
                          net::Traffic::Control,
                          t0,              t1, 0.0,
                          0,
                          0,               -1, 0,
                          0};
    compute_open_ = true;
  }

  /// Close the trailing compute slice; call after the rank's thread joined.
  void finalize() { flush_compute(); }

  std::span<const TraceEvent> events() const { return events_; }
  std::span<const u64> details() const { return details_; }
  std::vector<TraceEvent> take_events() { return std::move(events_); }
  std::vector<u64> take_details() { return std::move(details_); }
  usize events_capacity() const { return events_.capacity(); }
  usize details_capacity() const { return details_.capacity(); }

  /// Thread-safe snapshot of the recent-op ring, oldest first. Safe to call
  /// from the watchdog while the rank is running.
  std::vector<RingEntry> ring_snapshot() const {
    std::vector<RingEntry> out;
    std::lock_guard lock(ring_mu_);
    const u64 n = std::min<u64>(ring_seq_, kRingCapacity);
    out.reserve(n);
    for (u64 i = ring_seq_ - n; i < ring_seq_; ++i)
      out.push_back(ring_[i % kRingCapacity]);
    return out;
  }

 private:
  void flush_compute() {
    if (compute_open_ && compute_.t1 > compute_.t0)
      events_.push_back(compute_);
    compute_open_ = false;
  }

  bool enabled_ = false;
  bool pending_open_ = false;
  bool compute_open_ = false;
  TraceEvent pending_{};
  TraceEvent compute_{};
  std::vector<TraceEvent> events_;
  std::vector<u64> details_;  ///< flattened (peer, bytes) pairs

  mutable std::mutex ring_mu_;
  std::array<RingEntry, kRingCapacity> ring_{};
  u64 ring_seq_ = 0;
};

}  // namespace hds::obs
