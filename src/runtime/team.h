// Team: the process-local stand-in for an MPI job. Each rank runs as a
// std::thread; collectives operate through shared memory with the same
// blocking bulk-synchronous semantics MPI provides. A per-rank SimClock is
// advanced by analytic computation charges and synchronized at collectives
// using the net::CostModel, which is what makes single-box runs reproduce
// cluster-scale timing shapes.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "check/config.h"
#include "common/types.h"
#include "net/cost_model.h"
#include "net/machine.h"
#include "net/sim.h"
#include "obs/metrics.h"
#include "runtime/barrier.h"
#include "runtime/mailbox.h"

namespace hds::obs {
class RankTracer;
struct TraceReport;
}  // namespace hds::obs

namespace hds::check {
class RaceDetector;
struct CheckReport;
}  // namespace hds::check

namespace hds::model {
class ControlledScheduler;
class ScheduleRecorder;
}  // namespace hds::model

namespace hds::runtime {

class Comm;
class FaultPlan;

struct TeamConfig {
  int nranks = 4;
  /// Machine the cost model charges against. If its rank layout does not
  /// cover `nranks`, it is replaced by a single node hosting all ranks.
  net::MachineModel machine{};
  /// Virtual workload multiplier: data-volume cost terms and computation
  /// charges are scaled by this factor (see net::CostModel).
  double data_scale = 1.0;
  /// Wall-clock no-progress bound: if no rank completes an op (or exits)
  /// for this long while a run is in flight, the watchdog aborts the run
  /// with a watchdog_timeout carrying a per-rank diagnostic dump instead of
  /// letting a lost message or mismatched op sequence hang forever.
  /// 0 disables the watchdog.
  double watchdog_timeout_s = 60.0;
  /// Optional deterministic fault schedule (see runtime/fault.h). The
  /// explicit initializer keeps designated-initializer construction
  /// (`TeamConfig{.nranks = p}`) free of -Wmissing-field-initializers.
  std::shared_ptr<FaultPlan> fault = nullptr;
  /// Record a full per-rank event trace during run(), merged afterwards
  /// into the TraceReport returned by Team::trace(). Tracing observes the
  /// simulation without charging it: simulated times are bit-identical
  /// with the toggle on or off, and with it off the trace buffers are
  /// never allocated.
  bool trace = false;
  /// PGAS happens-before race checking (see check/race_detector.h). Like
  /// tracing, checking observes the simulation without charging it:
  /// simulated times are bit-identical with the checker on or off, and
  /// with it off no checker state is ever allocated.
  check::CheckConfig check{};
  /// Recoverable failure semantics (ULFM-style shrink-to-survivors): an
  /// injected rank_failed no longer dooms the run. Survivors that catch
  /// team_aborted may call Comm::recover_survivors() to rendezvous, agree
  /// on the survivor set, and continue on a fresh sub-communicator; if
  /// every survivor then returns normally, Team::run succeeds. Off by
  /// default — the default abort semantics (and simulated times) are
  /// unchanged.
  bool recoverable = false;
  /// Controlled-scheduling hook (hds::model, DESIGN.md sec. 15): when set,
  /// every blocking site parks through it and a single enabled rank runs at
  /// a time under the hook's chosen interleaving. Non-owning; null (the
  /// default) means production behavior, bit-identical to pre-model builds.
  model::ScheduleHook* model = nullptr;
  /// Symbolic schedule recorder (hds::model static matcher): when set,
  /// every Comm::note_op appends (rank, op, communicator signature, peer,
  /// tag) to the recorder without changing payload movement or simulated
  /// time. Non-owning; null by default.
  model::ScheduleRecorder* recorder = nullptr;
};

/// A sender's order for the pull alltoallv (Comm::alltoallv_into): its send
/// sequence is data[index(0)], data[index(1)], ..., where index(j) is the
/// usize stored `j * stride` bytes past `first`, so an array of records
/// that carry an index (core::KeyRef) serves as the order in place. A null
/// `first` means the send sequence is the data itself.
struct SendOrder {
  const std::byte* first = nullptr;
  usize stride = 0;

  usize index(usize j) const {
    usize i;
    std::memcpy(&i, first + j * stride, sizeof i);
    return i;
  }
};

namespace detail {

/// One rank's contribution to the collective in flight.
struct PubSlot {
  const void* in = nullptr;
  usize bytes = 0;
  const usize* counts = nullptr;  ///< alltoallv: per-destination counts
  SendOrder order;  ///< alltoallv: the order of `in` it sends
  double clock = 0.0;
  u32 op_id = 0;   ///< collective type, checked in debug builds
};

/// Pooled, grow-only byte buffer for collective results. Unlike
/// std::vector, resize() never zero-initializes — the executor overwrites
/// every byte it later hands out — and the allocation is reused across
/// epochs, so steady-state collectives allocate nothing. Contents are
/// undefined after a growing resize (the previous bytes are not carried
/// over, which no collective relies on: each op fills its result from
/// scratch).
class ArenaBuffer {
 public:
  std::byte* data() { return buf_.get(); }
  const std::byte* data() const { return buf_.get(); }
  usize size() const { return len_; }
  bool empty() const { return len_ == 0; }
  void clear() { len_ = 0; }

  void resize(usize n) {
    if (n > cap_) {
      const usize grown = std::max(n, cap_ * 2);
      buf_ = std::make_unique_for_overwrite<std::byte[]>(grown);
      cap_ = grown;
    }
    len_ = n;
  }

 private:
  std::unique_ptr<std::byte[]> buf_;
  usize cap_ = 0;
  usize len_ = 0;
};

/// Double-buffered collective arena (one per parity) — two barriers per
/// collective suffice because slots of parity e are not republished before
/// every rank has finished reading epoch e's result (see Comm::collective).
/// `cost_matrix` is the executor's P x P byte matrix for the alltoallv
/// charge, pooled across epochs so per-collective allocation churn stays
/// off the data path.
struct EpochArena {
  std::vector<PubSlot> slots;
  ArenaBuffer result;
  std::vector<usize> out_off;
  std::vector<usize> out_len;
  std::vector<usize> cost_matrix;
  double sync_time = 0.0;
  /// Model cost the executor computed for this collective (sync_time =
  /// latest entry + model_cost). Read by every member in Comm::finish under
  /// the same barrier-2 ordering that makes sync_time safe to read.
  double model_cost = 0.0;
};

/// Where a rank is blocked, for the watchdog's diagnostic dump.
enum class WaitSite : u32 {
  None = 0,
  Barrier = 1,
  MailboxRecv = 2,
  Recovery = 3,  ///< parked in the survivor-agreement rendezvous
};

/// Per-rank progress ledger, written only by the owning rank's thread and
/// read by the watchdog. `ops` increases monotonically within a run, so the
/// watchdog's progress signal is simply "sum over ranks changed".
struct ProgressState {
  std::atomic<u64> ops{0};        ///< communication ops started this run
  std::atomic<u32> last_op{0};    ///< OpId of the most recent op (0 = none)
  std::atomic<u32> site{0};       ///< WaitSite the rank is blocked at
  std::atomic<u64> wait_src{0};   ///< world rank awaited (MailboxRecv)
  std::atomic<u64> wait_tag{0};   ///< tag awaited (MailboxRecv)
  std::atomic<double> sim_clock{0.0};  ///< rank's SimClock at last op
  std::atomic<u32> done{0};       ///< rank's thread has exited

  void reset() {
    ops.store(0, std::memory_order_relaxed);
    last_op.store(0, std::memory_order_relaxed);
    site.store(0, std::memory_order_relaxed);
    wait_src.store(0, std::memory_order_relaxed);
    wait_tag.store(0, std::memory_order_relaxed);
    sim_clock.store(0.0, std::memory_order_relaxed);
    done.store(0, std::memory_order_relaxed);
  }
};

/// RAII marker for a blocking wait: sets the rank's waiting site on entry
/// and clears it on exit (including unwind via team_aborted).
class SiteScope {
 public:
  SiteScope(ProgressState& ps, WaitSite site, u64 src = 0, u64 tag = 0)
      : ps_(ps) {
    ps_.wait_src.store(src, std::memory_order_relaxed);
    ps_.wait_tag.store(tag, std::memory_order_relaxed);
    ps_.site.store(static_cast<u32>(site), std::memory_order_relaxed);
  }
  ~SiteScope() {
    ps_.site.store(static_cast<u32>(WaitSite::None),
                   std::memory_order_relaxed);
  }
  SiteScope(const SiteScope&) = delete;
  SiteScope& operator=(const SiteScope&) = delete;

 private:
  ProgressState& ps_;
};

/// Shared state of one communicator (the world or a survivor subgroup).
struct CommState {
  CommState(std::vector<rank_t> member_ranks, const net::MachineModel& m,
            const std::atomic<bool>* abort_flag,
            model::ScheduleHook* hook = nullptr);

  std::vector<rank_t> members;  ///< world ranks, in member order
  int nodes_spanned = 1;
  Barrier barrier;
  std::array<EpochArena, 2> epochs;
};

}  // namespace detail

class Team {
 public:
  explicit Team(TeamConfig cfg);
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Run `fn` on every rank; blocks until all ranks return. Clocks are
  /// reset first. If a rank throws, the team is poisoned, remaining ranks
  /// unwind via team_aborted, and the original exception is rethrown here.
  /// With a watchdog timeout configured, a wall-clock hang (lost message,
  /// mismatched op sequence) is converted into a watchdog_timeout abort.
  void run(const std::function<void(Comm&)>& fn);

  int size() const { return cfg_.nranks; }
  const TeamConfig& config() const { return cfg_; }
  const net::CostModel& cost() const { return cost_; }

  /// Timing aggregates of the most recent run().
  const net::TeamStats& stats() const { return stats_; }
  /// Final simulated clock of one rank from the most recent run().
  double rank_time(rank_t r) const { return final_times_.at(r); }

  /// Merged event trace of the most recent successful run(); nullptr unless
  /// TeamConfig::trace was set.
  const obs::TraceReport* trace() const { return trace_report_.get(); }
  /// Counter/series registry of one rank from the most recent run().
  const obs::Metrics& metrics(rank_t r) const {
    return metrics_.at(static_cast<usize>(r));
  }

  /// Violation report of the most recent run(); nullptr unless
  /// TeamConfig::check.enabled was set.
  const check::CheckReport* check_report() const;

  /// World ranks that failed during the most recent (or current) run, in
  /// failure order. Populated in both recoverable and default modes.
  std::vector<rank_t> failures() const;
  /// Survivor-agreement rounds completed during the most recent run.
  u64 recovery_rounds() const;
  /// Toggle recoverable failure semantics between runs (drivers flip this
  /// for a recovery-mode attempt and restore it afterwards).
  void set_recoverable(bool v) { cfg_.recoverable = v; }

  /// Undelivered messages across every rank's mailbox (model-checker
  /// terminal-state oracle; also useful in watchdog-style diagnostics).
  usize undelivered_messages() const;
  /// Terminal-state quiescence issues for the model checker: undelivered
  /// mailbox channels and barriers left with a nonzero arrival count
  /// (un-reset epoch state). Empty after any clean run.
  std::vector<std::string> model_quiescence_issues() const;

 private:
  friend class Comm;
  /// Run-abandon poison (deadlock / budget; see model/controlled_scheduler.h).
  friend class model::ControlledScheduler;

  /// What a survivor gets back from the agreement rendezvous: the rebuilt
  /// survivor communicator and the simulated time every survivor resumes
  /// at (max survivor clock + detection/agreement charge).
  struct RecoveryOutcome {
    detail::CommState* state = nullptr;
    double sync_time = 0.0;
  };

  /// Called by the victim's Comm::note_op before rank_failed propagates:
  /// records the failure and poisons the team so peers unwind promptly.
  void note_rank_failure(rank_t world);
  /// Survivor-side rendezvous (Comm::recover_survivors). Blocks until every
  /// live rank has parked here and every failed rank's thread has exited,
  /// then one survivor rebuilds the survivor communicator, resets the
  /// survivors' mailboxes, and lifts the abort flag. Throws team_aborted if
  /// recovery is impossible (non-failure error recorded, or a live rank
  /// already returned and can never join the rendezvous).
  RecoveryOutcome recover(rank_t world);
  /// Controlled-schedule ready predicate for the recovery rendezvous:
  /// recomputes recover()'s actionable conditions under rec_mu_ (the
  /// scheduler evaluates it while no rank runs).
  bool recovery_actionable(rank_t world, u64 round) const;

  detail::CommState* register_subteam(
      std::unique_ptr<detail::CommState> state);
  void record_error(std::exception_ptr ep);
  void poison_all();

  FaultPlan* fault_plan() const { return cfg_.fault.get(); }
  /// PGAS happens-before checker; nullptr unless checking is enabled.
  check::RaceDetector* race_detector() const { return detector_.get(); }
  /// Per-rank diagnostic snapshot for the watchdog abort message.
  std::string progress_dump(double stalled_s) const;
  /// Watchdog body: aborts the run if the progress snapshot stalls.
  void watchdog_loop(const std::atomic<int>& done);

  TeamConfig cfg_;
  net::CostModel cost_;
  std::atomic<bool> abort_{false};
  std::unique_ptr<detail::CommState> world_;
  std::vector<net::SimClock> clocks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::unique_ptr<detail::ProgressState[]> progress_;

  std::mutex watchdog_mu_;  ///< guards watchdog_stop_, paired with its cv
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  mutable std::mutex subteam_mu_;  ///< const readers: model_quiescence_issues
  std::vector<std::unique_ptr<detail::CommState>> subteams_;

  std::mutex err_mu_;
  std::exception_ptr first_error_;
  bool first_error_is_abort_ = false;

  /// Survivor-agreement state (all guarded by rec_mu_). rec_cv_ is
  /// notified on every event the rendezvous waits for: a new failure, a
  /// survivor parking, a thread exiting, a fatal error, and the rebuild.
  mutable std::mutex rec_mu_;
  std::condition_variable rec_cv_;
  std::vector<rank_t> failed_;       ///< world ranks failed this run
  std::vector<rank_t> rec_waiting_;  ///< survivors parked in recover()
  bool rec_pending_ = false;  ///< failure seen, agreement not yet complete
  bool rec_fatal_ = false;    ///< recovery impossible; waiters must abort
  u64 rec_rounds_ = 0;        ///< completed agreement rounds this run
  RecoveryOutcome rec_last_{};  ///< outcome of the most recent round

  net::TeamStats stats_{};
  std::vector<double> final_times_;

  std::vector<std::unique_ptr<obs::RankTracer>> tracers_;  ///< one per rank
  std::vector<obs::Metrics> metrics_;                      ///< one per rank
  std::unique_ptr<obs::TraceReport> trace_report_;
  std::unique_ptr<check::RaceDetector> detector_;  ///< null unless checking

};

}  // namespace hds::runtime
