#include "model/controlled_scheduler.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "runtime/team.h"

namespace hds::model {

namespace {
/// Rank identity of the current thread (established by rank_started); -1 on
/// non-rank threads.
thread_local int tl_rank = -1;
}  // namespace

const char* mutation_kind_name(Mutation::Kind k) {
  switch (k) {
    case Mutation::Kind::None: return "none";
    case Mutation::Kind::DropBarrier: return "drop-barrier";
    case Mutation::Kind::ReorderPush: return "reorder-push";
  }
  return "?";
}

bool footprints_conflict(const Footprint& x, const Footprint& y) {
  // Start (about to run anything) and Recovery (touches team-wide failure
  // state) conservatively conflict with every footprint.
  if (x.site == Site::Start || y.site == Site::Start ||
      x.site == Site::Recovery || y.site == Site::Recovery)
    return true;
  if (x.obj != y.obj) return false;
  // Same mailbox, different (src, tag) channel: FIFO per channel makes the
  // operations commute.
  if (x.site == Site::Mailbox && y.site == Site::Mailbox)
    return x.a == y.a && x.b == y.b;
  return true;
}

ControlledScheduler::ControlledScheduler(Config cfg)
    : cfg_(std::move(cfg)), ranks_(static_cast<usize>(cfg_.nranks)) {
  HDS_CHECK(cfg_.nranks >= 1);
}

void ControlledScheduler::rank_started(int world) {
  tl_rank = world;
  std::unique_lock lock(mu_);
  auto& st = ranks_[static_cast<usize>(world)];
  st.registered = true;
  st.parked = true;
  st.at = Footprint{Site::Start, nullptr, 0, 0};
  static const std::function<bool()> kAlways = [] { return true; };
  st.ready = &kAlways;
  ++started_;
  // The last rank to register triggers the first decision: the run's
  // initial state is "every rank parked at Start".
  if (started_ == cfg_.nranks && running_ == -1) schedule_next_locked();
  cv_.wait(lock, [&] {
    return abandoned_.load(std::memory_order_relaxed) || running_ == world;
  });
  st.parked = false;
  st.ready = nullptr;
}

void ControlledScheduler::rank_finished() {
  const int me = tl_rank;
  tl_rank = -1;
  std::lock_guard lock(mu_);
  auto& st = ranks_[static_cast<usize>(me)];
  st.finished = true;
  st.parked = false;
  st.ready = nullptr;
  if (abandoned_.load(std::memory_order_relaxed)) {
    cv_.notify_all();
    return;
  }
  if (running_ == me) {
    running_ = -1;
    schedule_next_locked();
  }
}

void ControlledScheduler::park(Site site, const void* obj, u64 a, u64 b,
                               const std::function<bool()>& ready) {
  if (abandoned_.load(std::memory_order_acquire)) return;  // free-run unwind
  const int me = tl_rank;
  HDS_CHECK_MSG(me >= 0, "model park from a non-rank thread");
  std::unique_lock lock(mu_);
  auto& st = ranks_[static_cast<usize>(me)];
  st.parked = true;
  st.at = Footprint{site, obj, a, b};
  st.ready = &ready;  // valid for the duration of this call
  if (running_ == me) {
    running_ = -1;
    schedule_next_locked();  // baton pass: the parking thread decides
  }
  cv_.wait(lock, [&] {
    return abandoned_.load(std::memory_order_relaxed) || running_ == me;
  });
  st.parked = false;
  st.ready = nullptr;
}

void ControlledScheduler::note_effect(Site site, const void* obj, u64 a,
                                      u64 b) {
  if (abandoned_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(mu_);
  if (!steps_.empty())
    steps_.back().effects.push_back(Footprint{site, obj, a, b});
}

void ControlledScheduler::schedule_next_locked() {
  bool all_finished = true;
  for (const auto& st : ranks_)
    if (!st.finished) all_finished = false;
  if (all_finished) {
    cv_.notify_all();
    return;
  }

  StepRecord rec;
  for (int r = 0; r < cfg_.nranks; ++r) {
    const auto& st = ranks_[static_cast<usize>(r)];
    if (st.finished || !st.parked || st.ready == nullptr) continue;
    // Contention-free by construction: no rank is running while the baton
    // holder evaluates predicates, so the primitive mutexes they take are
    // never held by anyone else.
    if ((*st.ready)()) {
      rec.enabled.push_back(r);
      rec.parked_at.push_back(st.at);
    }
  }

  if (rec.enabled.empty()) {
    abandon_locked(/*deadlock=*/true);
    return;
  }
  if (decision_ >= cfg_.max_steps) {
    abandon_locked(/*deadlock=*/false);
    return;
  }

  int choice;
  auto enabled_has = [&](int r) {
    return std::find(rec.enabled.begin(), rec.enabled.end(), r) !=
           rec.enabled.end();
  };
  if (decision_ < cfg_.prefix.size()) {
    choice = cfg_.prefix[decision_];
    if (!enabled_has(choice)) {
      // The replayed schedule does not fit this run (different build or a
      // nondeterministic scenario): fall back to the default pick and flag.
      replay_diverged_ = true;
      choice = rec.enabled.front();
    }
  } else if (cfg_.pick) {
    choice = cfg_.pick(rec.enabled);
    if (!enabled_has(choice)) choice = rec.enabled.front();
  } else {
    choice = rec.enabled.front();
  }

  rec.chosen = choice;
  rec.resume = ranks_[static_cast<usize>(choice)].at;
  steps_.push_back(std::move(rec));
  choices_.push_back(choice);
  ++decision_;
  running_ = choice;
  cv_.notify_all();
}

void ControlledScheduler::abandon_locked(bool deadlock) {
  if (deadlock) {
    deadlock_ = true;
    deadlock_report_ = wait_for_report_locked();
  } else {
    budget_hit_ = true;
  }
  abandoned_.store(true, std::memory_order_release);
  // Poison the team so released ranks unwind via team_aborted at their
  // post-park re-checks. Safe to take the team's internal locks here: every
  // rank is parked on our cv (holding no primitive mutex, per the hook
  // contract).
  if (team_ != nullptr) {
    team_->abort_.store(true, std::memory_order_relaxed);
    team_->poison_all();
  }
  cv_.notify_all();
}

std::string ControlledScheduler::wait_for_report_locked() const {
  std::ostringstream os;
  os << "deadlock at decision " << decision_
     << ": no enabled transition; wait-for state:";
  for (int r = 0; r < cfg_.nranks; ++r) {
    const auto& st = ranks_[static_cast<usize>(r)];
    if (st.finished) continue;
    os << "\n  rank " << r << " parked at " << site_name(st.at.site);
    if (st.at.site == Site::Mailbox)
      os << " (awaiting src=" << st.at.a << ", tag=" << st.at.b << ")";
    if (!st.parked) os << " [not yet parked]";
  }
  return os.str();
}

bool ControlledScheduler::mutate_drop_barrier() {
  if (cfg_.mutation.kind != Mutation::Kind::DropBarrier ||
      tl_rank != cfg_.mutation.rank)
    return false;
  return barrier_seen_.fetch_add(1, std::memory_order_relaxed) ==
         cfg_.mutation.nth;
}

bool ControlledScheduler::mutate_reorder_push(int dst_world, int src,
                                              u64 tag) {
  (void)dst_world;
  (void)src;
  (void)tag;
  if (cfg_.mutation.kind != Mutation::Kind::ReorderPush) return false;
  // Counts only contended pushes (the mailbox calls this with a non-empty
  // channel queue); atomic because the mailbox mutex is held here.
  return reorder_seen_.fetch_add(1, std::memory_order_relaxed) ==
         cfg_.mutation.nth;
}

}  // namespace hds::model
