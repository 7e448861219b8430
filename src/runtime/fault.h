// Fault layer: deterministic fault injection plus the structured failure
// types the hardened runtime reports.
//
// A FaultPlan is armed on TeamConfig and consulted by Comm at every
// communication operation (collectives, split, send, recv). Actions are
// keyed on (rank, k-th op on that rank) or on (src, dst, tag) message
// coordinates, so a test can crash an exact superstep of a distributed
// algorithm, straggle one rank's SimClock, or drop/delay a specific
// message — and observe precisely which abort path fires. Actions may also
// be keyed on the k-th op *within a phase* (crash the 2nd op of the
// Exchange superstep, regardless of how many histogram rounds ran first).
// Each action is one-shot — once triggered it is consumed, which is what
// makes core::sort_resilient converge after an injected failure — but a
// plan may hold many actions, so multi-fault schedules (back-to-back
// crashes during a recovery, or correlated same-op crashes of several
// ranks) are expressed by arming several actions at once.
//
// The failure types (rank_failed, collective_mismatch, watchdog_timeout)
// live here rather than in common/error.h because they are runtime-layer
// contracts: they carry rank/op diagnostics and are produced only by the
// Team/Comm machinery.
#pragma once

#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/sim.h"

namespace hds::runtime {

/// Thrown by FaultPlan inside the victim rank: the simulated equivalent of
/// a process dying mid-run. Peers unwind via team_aborted; Team::run
/// rethrows this original error.
class rank_failed : public std::runtime_error {
 public:
  rank_failed(rank_t rank, u64 op_index)
      : std::runtime_error(format(rank, op_index)),
        rank_(rank),
        op_index_(op_index) {}

  rank_t rank() const { return rank_; }
  u64 op_index() const { return op_index_; }

 private:
  static std::string format(rank_t rank, u64 op_index) {
    std::ostringstream os;
    os << "injected fault: rank " << rank << " failed at op #" << op_index;
    return os.str();
  }
  rank_t rank_;
  u64 op_index_;
};

/// Thrown (release builds included) when the members of a communicator
/// enter different collectives in the same round. The message groups the
/// participating ranks by the operation they attempted.
class collective_mismatch : public std::logic_error {
 public:
  explicit collective_mismatch(std::string what)
      : std::logic_error(std::move(what)) {}
};

/// Thrown out of Team::run when the watchdog observed no progress on any
/// rank for longer than TeamConfig::watchdog_timeout_s. what() carries the
/// full per-rank diagnostic dump (last op, waiting site, sim clock).
class watchdog_timeout : public std::runtime_error {
 public:
  explicit watchdog_timeout(std::string what)
      : std::runtime_error(std::move(what)) {}
};

/// Deterministic, seeded fault schedule. Thread-safe: hooks are called
/// concurrently from every rank. Builders are chainable:
///
///   auto plan = std::make_shared<FaultPlan>(42);
///   plan->crash_rank_at_op(3, 17).delay_message(0, 1, kTag, 0.5);
///   cfg.fault = plan;
///
/// Op indices are 0-based and count, per rank, every collective (including
/// split) and every send/recv that rank issues within one Team::run.
/// Counters reset at the start of each run; consumed actions stay consumed
/// until rearm().
class FaultPlan {
 public:
  explicit FaultPlan(u64 seed = 0) : seed_(seed), rng_(seed) {}

  // --- schedule builders ----------------------------------------------------

  /// Rank `rank` throws rank_failed when it reaches its k-th op.
  FaultPlan& crash_rank_at_op(rank_t rank, u64 k);
  /// Rank `rank` becomes a straggler: its SimClock is advanced by
  /// `sim_seconds` when it reaches its k-th op.
  FaultPlan& delay_rank_at_op(rank_t rank, u64 k, double sim_seconds);
  /// Phase-targeted crash: rank `rank` throws rank_failed when it reaches
  /// its k-th op whose SimClock phase is `phase` (k counts per phase, so
  /// "2nd op of Exchange" is stable even when histogram round counts vary).
  FaultPlan& crash_rank_at_phase_op(rank_t rank, net::Phase phase, u64 k);
  /// Phase-targeted straggler, same keying as crash_rank_at_phase_op.
  FaultPlan& delay_rank_at_phase_op(rank_t rank, net::Phase phase, u64 k,
                                    double sim_seconds);
  /// Correlated multi-rank crash: every listed rank fails at its own k-th
  /// op (the simulated analogue of losing a whole node).
  FaultPlan& crash_ranks_at_op(std::span<const rank_t> ranks, u64 k);
  /// Back-to-back schedule: rank `rank` crashes at each op index in `ks`
  /// (useful when recovery keeps the run alive past the first failure).
  FaultPlan& crash_rank_at_ops(rank_t rank, std::span<const u64> ks);
  /// The first message src->dst with `tag` is silently lost (the sender is
  /// still charged for the transfer; the receiver blocks until the
  /// watchdog converts the hang into an abort).
  FaultPlan& drop_message(rank_t src, rank_t dst, u64 tag);
  /// The first message src->dst with `tag` arrives `sim_seconds` late.
  FaultPlan& delay_message(rank_t src, rank_t dst, u64 tag,
                           double sim_seconds);
  /// Drop every message independently with probability p, using the
  /// plan's seeded RNG (reproducible across runs with the same seed and
  /// message order per channel).
  FaultPlan& drop_messages_with_probability(double p);

  /// Re-arm all consumed actions (op counters still reset per run).
  void rearm();

  // --- runtime hooks (called by Team/Comm) ----------------------------------

  /// Called at the start of every Team::run: resets per-rank op counters.
  void begin_run(int nranks);
  /// Called by rank `rank` at the start of its next op. May throw
  /// rank_failed (crash) or advance `clock` (straggler). Returns the op's
  /// 0-based index on this rank.
  u64 on_op(rank_t rank, u32 op_id, net::SimClock& clock);
  /// Called on every send. Returns false if the message must be dropped;
  /// otherwise *extra_delay_s is the additional simulated arrival delay.
  bool on_send(rank_t src, rank_t dst, u64 tag, double* extra_delay_s);

  // --- introspection --------------------------------------------------------

  /// Ops issued by `rank` during the most recent (or current) run. Useful
  /// for sweeping an injected crash across every op of an algorithm.
  u64 ops_observed(rank_t rank) const;
  /// Ops issued by `rank` while its SimClock was in `phase` (same keying
  /// as crash_rank_at_phase_op, for sweeping crashes within a superstep).
  u64 ops_observed_in_phase(rank_t rank, net::Phase phase) const;
  u64 seed() const { return seed_; }

 private:
  struct OpAction {
    rank_t rank;
    u64 k;
    bool crash;       ///< crash vs. straggler delay
    double delay_s;   ///< straggler SimClock advance
    i32 phase = -1;   ///< net::Phase filter; -1 keys k on the global counter
    bool armed = true;
  };
  struct MsgAction {
    rank_t src;
    rank_t dst;
    u64 tag;
    bool drop;       ///< drop vs. delivery delay
    double delay_s;  ///< arrival delay
    bool armed = true;
  };

  mutable std::mutex mu_;
  u64 seed_;
  Xoshiro256 rng_;
  double drop_prob_ = 0.0;
  std::vector<OpAction> op_actions_;
  std::vector<MsgAction> msg_actions_;
  std::vector<u64> op_count_;
  /// Per-rank, per-phase op counters (op_phase_count_[rank * kPhaseCount +
  /// phase]), driving the phase-targeted actions.
  std::vector<u64> op_phase_count_;
};

}  // namespace hds::runtime
