// hds::model — scheduler hook contract (DESIGN.md sec. 15).
//
// The runtime's blocking primitives (Barrier, Mailbox, the recovery
// rendezvous) consult an optional ScheduleHook installed via
// TeamConfig::model. With no hook installed (the default), every primitive
// behaves exactly as before — the hook pointer is the only overhead, and
// simulated times are bit-identical.
//
// With a hook installed, a blocking site parks through ScheduleHook::park
// instead of waiting on its condition variable: the calling rank registers
// its wait predicate and yields, and the controlled scheduler (a baton
// passed between rank threads — see model/controlled_scheduler.h) resumes
// exactly one enabled rank at a time under a chosen interleaving. The
// predicate is evaluated by the scheduler while *no* rank is running, so it
// may take the primitive's own mutex without contention.
//
// Contract for a hooked wait site:
//   1. never park while holding the primitive's mutex;
//   2. the `ready` predicate must be monotone under the actions of other
//      ranks (once true it can only be re-falsified by the parked rank's
//      own resumed step) and must return true when the team is aborting;
//   3. after park() returns, re-check the condition under the mutex — the
//      scheduler may have released the rank in abort mode.
//
// The hook also carries the seeded protocol-mutation switches the explorer
// uses to prove it has teeth (reorder one mailbox delivery, drop a barrier
// entry), and effect notes that feed the
// sleep-set/DPOR independence relation.
#pragma once

#include <functional>
#include <string_view>

#include "common/types.h"

namespace hds::model {

/// Where a rank parks (the model checker's transition vocabulary for
/// blocking sites; the communication-op vocabulary is obs::OpKind, mapped
/// by model/transitions.h).
enum class Site : u32 {
  Start = 0,    ///< rank thread registered, not yet scheduled
  Barrier = 1,  ///< runtime::Barrier::wait (epoch barriers)
  Mailbox = 2,  ///< runtime::Mailbox::pop, channel (a=src, b=tag)
  Recovery = 3, ///< Team::recover survivor rendezvous
};

constexpr std::string_view site_name(Site s) {
  switch (s) {
    case Site::Start: return "start";
    case Site::Barrier: return "barrier";
    case Site::Mailbox: return "mailbox";
    case Site::Recovery: return "recovery";
  }
  return "?";
}

class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;

  /// Called first thing on each rank thread; parks until scheduled (the
  /// initial state of a controlled run is "every rank parked at Start").
  /// Establishes the calling thread's rank identity for every later call.
  virtual void rank_started(int world) = 0;
  /// Called when the rank function returns or unwinds; releases the baton.
  virtual void rank_finished() = 0;

  /// Park the calling rank at a blocking site. `obj` identifies the
  /// primitive instance, (a, b) the channel within it (mailbox src/tag).
  /// Returns once the scheduler selected this rank with `ready()` true, or
  /// immediately in abort mode (caller re-checks its condition).
  virtual void park(Site site, const void* obj, u64 a, u64 b,
                    const std::function<bool()>& ready) = 0;

  /// Record a visible effect of the currently running rank's step (a
  /// mailbox push, a barrier arrival) for the
  /// independence relation. `obj`/(a, b) as for park().
  virtual void note_effect(Site site, const void* obj, u64 a, u64 b) = 0;

  /// True once the scheduler abandoned the run (deadlock detected or step
  /// budget exhausted) and released every parked rank so it can unwind.
  /// Sites whose wait condition is not tied to the team abort flag (the
  /// recovery rendezvous runs *during* aborts by design) consult this
  /// after park() to distinguish a scheduler abandon from a wakeup.
  virtual bool run_abandoned() const = 0;

  // --- seeded protocol mutations (explorer self-tests) ----------------------
  /// True iff the current rank's Nth Barrier::wait entry should be dropped
  /// (the rank skips the barrier entirely).
  virtual bool mutate_drop_barrier() = 0;
  /// True iff this push into an already-non-empty (src, tag) channel of
  /// `dst_world`'s mailbox should be delivered ahead of the queued messages
  /// (a FIFO-order violation on one channel).
  virtual bool mutate_reorder_push(int dst_world, int src, u64 tag) = 0;
};

}  // namespace hds::model
