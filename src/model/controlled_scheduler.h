// ControlledScheduler — the ScheduleHook implementation that serializes a
// Team run into one enabled transition at a time (DESIGN.md sec. 15).
//
// Baton-passing design: there is no separate driver thread. Every rank
// thread parks itself (Site::Start on entry, then each blocking site), and
// the act of parking passes the baton — the parking thread runs the
// scheduling decision itself while no rank is running, evaluating the
// parked ranks' ready predicates contention-free, then wakes exactly one
// enabled rank. A "step" is therefore resume-to-next-park: everything a
// rank does between two blocking sites is one atomic transition, which is
// the right granularity here because the runtime's only cross-rank
// interaction points are the hooked blocking sites and their effects
// (mailbox pushes, barrier arrivals) — per-(src,tag) FIFO
// channels make any finer interleaving invisible to receivers.
//
// Decisions are recorded (enabled set, park footprints, chosen rank,
// observed effects) so the explorer can re-execute alternative prefixes and
// compute its independence relation. Deadlock (no enabled rank while some
// are unfinished) and step-budget exhaustion abandon the run: the team is
// poisoned, every parked rank is released, and the sites' post-park
// re-checks unwind each rank via team_aborted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "model/hook.h"

namespace hds::runtime {
class Team;
}  // namespace hds::runtime

namespace hds::model {

/// Seeded protocol mutation (explorer self-tests): exactly one structural
/// fault injected at the hook layer, which the explorer must catch.
struct Mutation {
  enum class Kind : u32 {
    None = 0,
    DropBarrier = 1,     ///< `rank` skips its nth Barrier::wait entirely
    ReorderPush = 2,     ///< nth contended mailbox push jumps its channel's queue
  };
  Kind kind = Kind::None;
  int rank = 0;  ///< target rank (DropBarrier)
  int nth = 0;   ///< 0-based occurrence to mutate

  bool active() const { return kind != Kind::None; }
};

const char* mutation_kind_name(Mutation::Kind k);

/// Where an enabled rank was parked when a decision was taken, and what a
/// chosen step touched — the explorer's independence relation works on
/// these. Two footprints conflict iff they can affect each other's
/// enabledness or observed values: same primitive object, and for mailboxes
/// the same (src, tag) channel. Start and Recovery conservatively conflict
/// with everything.
struct Footprint {
  Site site = Site::Start;
  const void* obj = nullptr;
  u64 a = 0;
  u64 b = 0;
};

bool footprints_conflict(const Footprint& x, const Footprint& y);

/// One scheduling decision: who was enabled (with park footprints), who ran,
/// and the effects the chosen step produced before its next park.
struct StepRecord {
  std::vector<int> enabled;
  std::vector<Footprint> parked_at;  ///< parallel to `enabled`
  int chosen = -1;
  Footprint resume;                  ///< where the chosen rank was parked
  std::vector<Footprint> effects;    ///< noted during the chosen step
};

class ControlledScheduler final : public ScheduleHook {
 public:
  struct Config {
    int nranks = 2;
    /// Forced choices for the first decisions (replay / DFS prefix). Beyond
    /// the prefix, `pick` chooses; if unset, the lowest enabled rank runs.
    std::vector<int> prefix;
    std::function<int(const std::vector<int>& enabled)> pick;
    /// Abandon the run after this many decisions (runaway guard).
    usize max_steps = 200000;
    Mutation mutation{};
  };

  explicit ControlledScheduler(Config cfg);

  /// Attach the team under test; must be called before Team::run so the
  /// scheduler can poison it when it abandons a run.
  void attach(runtime::Team* team) { team_ = team; }

  // --- ScheduleHook ----------------------------------------------------------
  void rank_started(int world) override;
  void rank_finished() override;
  void park(Site site, const void* obj, u64 a, u64 b,
            const std::function<bool()>& ready) override;
  void note_effect(Site site, const void* obj, u64 a, u64 b) override;
  bool run_abandoned() const override {
    return abandoned_.load(std::memory_order_acquire);
  }
  bool mutate_drop_barrier() override;
  bool mutate_reorder_push(int dst_world, int src, u64 tag) override;

  // --- post-run inspection ---------------------------------------------------
  bool deadlocked() const { return deadlock_; }
  bool budget_exhausted() const { return budget_hit_; }
  /// True iff a replayed prefix choice was not enabled when its decision
  /// came up (the schedule does not fit this run).
  bool replay_diverged() const { return replay_diverged_; }
  const std::string& deadlock_report() const { return deadlock_report_; }
  const std::vector<int>& choices() const { return choices_; }
  const std::vector<StepRecord>& steps() const { return steps_; }

 private:
  struct RankState {
    bool registered = false;
    bool parked = false;
    bool finished = false;
    Footprint at{};
    const std::function<bool()>* ready = nullptr;  ///< valid while parked
  };

  /// Pass the baton: close the running step, evaluate predicates, pick the
  /// next rank (or detect completion / deadlock / budget). Caller holds mu_.
  void schedule_next_locked();
  void abandon_locked(bool deadlock);
  std::string wait_for_report_locked() const;

  Config cfg_;
  runtime::Team* team_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RankState> ranks_;
  int started_ = 0;
  int running_ = -1;  ///< rank holding the baton; -1 while deciding
  usize decision_ = 0;
  std::vector<int> choices_;
  std::vector<StepRecord> steps_;
  bool deadlock_ = false;
  bool budget_hit_ = false;
  bool replay_diverged_ = false;
  std::string deadlock_report_;

  std::atomic<bool> abandoned_{false};
  /// Mutation occurrence counters. reorder_seen_ is atomic because
  /// mutate_reorder_push is called under the mailbox mutex and must not
  /// take mu_ (lock-order hygiene); barrier_seen_ runs lock-free too for
  /// symmetry.
  std::atomic<int> barrier_seen_{0};
  std::atomic<int> reorder_seen_{0};
};

}  // namespace hds::model
