#include "runtime/team.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "check/race_detector.h"
#include "common/error.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "runtime/comm.h"
#include "runtime/fault.h"

namespace hds::runtime {

namespace detail {

CommState::CommState(std::vector<rank_t> member_ranks,
                     const net::MachineModel& m,
                     const std::atomic<bool>* abort_flag,
                     model::ScheduleHook* hook)
    : members(std::move(member_ranks)),
      barrier(static_cast<int>(members.size()), abort_flag, hook) {
  HDS_CHECK(!members.empty());
  std::vector<int> nodes;
  nodes.reserve(members.size());
  for (rank_t r : members) nodes.push_back(m.node_of(r));
  std::sort(nodes.begin(), nodes.end());
  nodes_spanned =
      static_cast<int>(std::unique(nodes.begin(), nodes.end()) - nodes.begin());
  for (auto& ep : epochs) {
    ep.slots.resize(members.size());
    ep.out_off.resize(members.size());
    ep.out_len.resize(members.size());
  }
}

}  // namespace detail

Team::Team(TeamConfig cfg) : cfg_(cfg) {
  HDS_CHECK(cfg_.nranks >= 1);
  HDS_CHECK(cfg_.data_scale > 0.0);
  if (cfg_.machine.total_ranks() != cfg_.nranks) {
    // No explicit placement given: host all ranks on one node.
    cfg_.machine.nodes = 1;
    cfg_.machine.ranks_per_node = cfg_.nranks;
  }
  cost_ = net::CostModel(cfg_.machine, cfg_.data_scale);
  std::vector<rank_t> all(cfg_.nranks);
  for (int r = 0; r < cfg_.nranks; ++r) all[r] = r;
  world_ = std::make_unique<detail::CommState>(std::move(all), cfg_.machine,
                                               &abort_, cfg_.model);
  clocks_.resize(cfg_.nranks);
  final_times_.resize(cfg_.nranks, 0.0);
  progress_ = std::make_unique<detail::ProgressState[]>(
      static_cast<usize>(cfg_.nranks));
  tracers_.reserve(static_cast<usize>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r)
    tracers_.push_back(std::make_unique<obs::RankTracer>());
  metrics_.resize(static_cast<usize>(cfg_.nranks));
  scratch_.resize(static_cast<usize>(cfg_.nranks));
  if (cfg_.check.enabled)
    detector_ = std::make_unique<check::RaceDetector>(cfg_.check);
}

const check::CheckReport* Team::check_report() const {
  return detector_ ? &detector_->report() : nullptr;
}

Team::~Team() = default;

void Team::run(const std::function<void(Comm&)>& fn) {
  abort_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  first_error_is_abort_ = false;
  {
    std::lock_guard lock(rec_mu_);
    failed_.clear();
    rec_waiting_.clear();
    rec_pending_ = false;
    rec_fatal_ = false;
    rec_rounds_ = 0;
    rec_last_ = RecoveryOutcome{};
  }
  for (auto& c : clocks_) c.reset();
  {
    std::lock_guard lock(subteam_mu_);
    subteams_.clear();
  }
  mailboxes_.clear();
  mailboxes_.reserve(cfg_.nranks);
  for (int r = 0; r < cfg_.nranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>(&abort_, r, cfg_.model));
  for (int r = 0; r < cfg_.nranks; ++r) progress_[r].reset();
  trace_report_.reset();
  for (auto& m : metrics_) m.reset();
  for (int r = 0; r < cfg_.nranks; ++r) {
    tracers_[r]->reset();
    tracers_[r]->set_enabled(cfg_.trace);
    clocks_[r].set_sink(cfg_.trace ? tracers_[r].get() : nullptr);
  }
  if (cfg_.fault) cfg_.fault->begin_run(cfg_.nranks);
  if (detector_) detector_->begin_run(cfg_.nranks, tracers_);

  std::atomic<int> done{0};
  std::thread watchdog;
  // A controlled run is wall-clock unbounded by design (parked ranks are
  // a scheduler decision, not a hang); the scheduler's own deadlock/budget
  // detection replaces the watchdog.
  if (cfg_.watchdog_timeout_s > 0.0 && cfg_.model == nullptr) {
    {
      std::lock_guard lock(watchdog_mu_);
      watchdog_stop_ = false;
    }
    watchdog = std::thread([this, &done] { watchdog_loop(done); });
  }

  std::vector<std::thread> threads;
  threads.reserve(cfg_.nranks);
  for (int r = 0; r < cfg_.nranks; ++r) {
    threads.emplace_back([this, &fn, r, &done] {
      if (cfg_.model) cfg_.model->rank_started(r);
      Comm comm(this, world_.get(), r);
      try {
        fn(comm);
      } catch (...) {
        record_error(std::current_exception());
      }
      progress_[r].done.store(1, std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_relaxed);
      // The agreement rendezvous waits on thread exits (failed ranks must
      // be gone, live ranks must not be silently abandoned); the empty
      // critical section orders the done-store before the wakeup.
      { std::lock_guard lock(rec_mu_); }
      rec_cv_.notify_all();
      // Release the scheduling baton last: by now every observable effect
      // of this rank (done flag included) is published.
      if (cfg_.model) cfg_.model->rank_finished();
    });
  }
  for (auto& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog.join();
  }

  for (int r = 0; r < cfg_.nranks; ++r) {
    clocks_[r].set_sink(nullptr);
    tracers_[r]->finalize();
  }

  // Stats are published before the error check so a failed run still
  // reports how far the simulated clocks got (recovery studies charge the
  // aborted attempt's time against the recovery strategy).
  stats_ = net::TeamStats{};
  for (int r = 0; r < cfg_.nranks; ++r) {
    final_times_[r] = clocks_[r].now();
    stats_.makespan_s = std::max(stats_.makespan_s, clocks_[r].now());
    for (usize p = 0; p < net::kPhaseCount; ++p)
      stats_.phase_s[p] +=
          clocks_[r].phase_seconds(static_cast<net::Phase>(p));
  }
  for (auto& v : stats_.phase_s) v /= cfg_.nranks;

  if (first_error_) {
    bool swallow = false;
    if (cfg_.recoverable) {
      // A recovered run ends with the victims' rank_failed (abort-class in
      // recoverable mode) still recorded. If agreement completed, nothing
      // worse was recorded, and every survivor returned normally, the run
      // succeeded on the shrunken team — swallow the failure record.
      std::lock_guard lock(rec_mu_);
      swallow = first_error_is_abort_ && !failed_.empty() &&
                rec_rounds_ > 0 && !rec_pending_ && !rec_fatal_;
    }
    if (!swallow) std::rethrow_exception(first_error_);
    first_error_ = nullptr;
    first_error_is_abort_ = false;
  }

  if (cfg_.trace) {
    auto rep = std::make_unique<obs::TraceReport>();
    rep->nranks = cfg_.nranks;
    rep->makespan_s = stats_.makespan_s;
    rep->events.reserve(static_cast<usize>(cfg_.nranks));
    rep->details.reserve(static_cast<usize>(cfg_.nranks));
    rep->clock_phase_s.reserve(static_cast<usize>(cfg_.nranks));
    for (int r = 0; r < cfg_.nranks; ++r) {
      rep->events.push_back(tracers_[r]->take_events());
      rep->details.push_back(tracers_[r]->take_details());
      std::array<double, net::kPhaseCount> ph{};
      for (usize p = 0; p < net::kPhaseCount; ++p)
        ph[p] = clocks_[r].phase_seconds(static_cast<net::Phase>(p));
      rep->clock_phase_s.push_back(ph);
    }
    rep->metrics = metrics_;
    trace_report_ = std::move(rep);
  }

  if (detector_ && cfg_.check.fail_on_violation &&
      !detector_->report().clean())
    throw check::pgas_violation(detector_->report().summary());
}

void Team::watchdog_loop(const std::atomic<int>& done) {
  using clock = std::chrono::steady_clock;
  const double timeout = cfg_.watchdog_timeout_s;
  const auto poll = std::chrono::duration<double>(
      std::clamp(timeout / 8.0, 0.001, 0.1));

  auto snapshot = [&] {
    // ops and done only ever increase within a run, so an unchanged sum
    // means no rank completed an op or exited since the last sample.
    u64 s = static_cast<u64>(done.load(std::memory_order_relaxed));
    for (int r = 0; r < cfg_.nranks; ++r)
      s += progress_[r].ops.load(std::memory_order_relaxed);
    return s;
  };

  u64 last = snapshot();
  auto last_change = clock::now();
  for (;;) {
    {
      std::unique_lock lock(watchdog_mu_);
      if (watchdog_cv_.wait_for(lock, poll, [&] { return watchdog_stop_; }))
        return;
    }
    if (done.load(std::memory_order_relaxed) >= cfg_.nranks) return;
    const u64 s = snapshot();
    if (s != last) {
      last = s;
      last_change = clock::now();
      continue;
    }
    const double stalled =
        std::chrono::duration<double>(clock::now() - last_change).count();
    if (stalled < timeout) continue;
    record_error(
        std::make_exception_ptr(watchdog_timeout(progress_dump(stalled))));
    return;
  }
}

std::string Team::progress_dump(double stalled_s) const {
  std::ostringstream os;
  os << "watchdog: no progress on any rank for " << stalled_s
     << "s (timeout " << cfg_.watchdog_timeout_s << "s); per-rank state:";
  for (int r = 0; r < cfg_.nranks; ++r) {
    const auto& ps = progress_[r];
    os << "\n  rank " << r << ": ";
    if (ps.done.load(std::memory_order_relaxed)) {
      os << "done";
      continue;
    }
    os << "ops=" << ps.ops.load(std::memory_order_relaxed);
    const u32 op = ps.last_op.load(std::memory_order_relaxed);
    os << ", last_op="
       << (op == 0 ? std::string_view("none")
                   : detail::op_name(static_cast<detail::OpId>(op)));
    switch (static_cast<detail::WaitSite>(
        ps.site.load(std::memory_order_relaxed))) {
      case detail::WaitSite::None:
        os << ", site=running";
        break;
      case detail::WaitSite::Barrier:
        os << ", site=barrier";
        break;
      case detail::WaitSite::MailboxRecv:
        os << ", site=mailbox(src="
           << ps.wait_src.load(std::memory_order_relaxed)
           << ", tag=" << ps.wait_tag.load(std::memory_order_relaxed) << ")";
        break;
      case detail::WaitSite::Recovery:
        os << ", site=recovery-rendezvous";
        break;
    }
    os << ", sim_clock=" << ps.sim_clock.load(std::memory_order_relaxed)
       << "s";
    if (r < static_cast<int>(mailboxes_.size()) && mailboxes_[r]) {
      const usize pending = mailboxes_[r]->pending();
      if (pending > 0) {
        os << ", inbox=" << pending << " undelivered [";
        bool first = true;
        for (const auto& [src, tag] : mailboxes_[r]->pending_channels()) {
          if (!first) os << ", ";
          first = false;
          os << "(src=" << src << ", tag=" << tag << ")";
        }
        if (pending > 4) os << ", ...";
        os << "]";
      }
    }
    // Ring of recent ops (obs::RankTracer): the dump shows the last few
    // ops of every rank, not just the most recent one, so the divergence
    // point of a hang (e.g. one rank short a barrier) is visible.
    const auto recent = tracers_[r]->ring_snapshot();
    if (!recent.empty()) {
      os << "\n    recent ops (oldest first):";
      for (const auto& e : recent) {
        os << "\n      #" << e.seq << " " << obs::op_kind_name(e.op)
           << " phase=" << net::phase_name(e.phase) << " t=" << e.t << "s";
        if (e.bytes > 0) os << " bytes=" << e.bytes;
        if (e.peer >= 0) os << " peer=" << e.peer;
        if (e.op == obs::OpKind::Send || e.op == obs::OpKind::Recv)
          os << " tag=" << e.tag;
      }
    }
  }
  os << "\n  world barrier: " << world_->barrier.waiting() << "/"
     << world_->barrier.participants() << " ranks parked";
  return os.str();
}

detail::CommState* Team::register_subteam(
    std::unique_ptr<detail::CommState> state) {
  std::lock_guard lock(subteam_mu_);
  subteams_.push_back(std::move(state));
  return subteams_.back().get();
}

void Team::record_error(std::exception_ptr ep) {
  bool is_abort = false;
  try {
    std::rethrow_exception(ep);
  } catch (const rank_failed&) {
    // In recoverable mode a rank failure is abort-class: survivors may
    // complete the run without it, and Team::run swallows it afterwards.
    is_abort = cfg_.recoverable;
  } catch (const team_aborted&) {
    is_abort = true;
  } catch (...) {
  }
  {
    std::lock_guard lock(err_mu_);
    if (!first_error_ || (first_error_is_abort_ && !is_abort)) {
      first_error_ = ep;
      first_error_is_abort_ = is_abort;
    }
  }
  abort_.store(true, std::memory_order_relaxed);
  poison_all();
  if (cfg_.recoverable && !is_abort) {
    // A non-failure error (check failure, watchdog, user exception) makes
    // the run unrecoverable: wake any parked survivors so they abort
    // instead of waiting for an agreement that can never complete.
    {
      std::lock_guard lock(rec_mu_);
      rec_fatal_ = true;
    }
    rec_cv_.notify_all();
  }
}

void Team::poison_all() {
  world_->barrier.poison();
  {
    std::lock_guard lock(subteam_mu_);
    for (auto& st : subteams_) st->barrier.poison();
  }
  for (auto& mb : mailboxes_) mb->poison();
}

void Team::note_rank_failure(rank_t world) {
  {
    std::lock_guard lock(rec_mu_);
    if (std::find(failed_.begin(), failed_.end(), world) == failed_.end())
      failed_.push_back(world);
    rec_pending_ = true;
  }
  abort_.store(true, std::memory_order_relaxed);
  poison_all();
  rec_cv_.notify_all();
}

std::vector<rank_t> Team::failures() const {
  std::lock_guard lock(rec_mu_);
  return failed_;
}

u64 Team::recovery_rounds() const {
  std::lock_guard lock(rec_mu_);
  return rec_rounds_;
}

Team::RecoveryOutcome Team::recover(rank_t world) {
  std::unique_lock lock(rec_mu_);
  const u64 round = rec_rounds_;
  rec_waiting_.push_back(world);
  rec_cv_.notify_all();
  auto unpark = [&] {
    auto it = std::find(rec_waiting_.begin(), rec_waiting_.end(), world);
    if (it != rec_waiting_.end()) rec_waiting_.erase(it);
  };
  auto is_failed = [&](rank_t r) {
    return std::find(failed_.begin(), failed_.end(), r) != failed_.end();
  };
  for (;;) {
    if (rec_fatal_) {
      unpark();
      throw team_aborted();
    }
    if (rec_rounds_ > round) return rec_last_;  // another survivor rebuilt

    bool all_failed_done = true;
    for (rank_t f : failed_)
      if (!progress_[f].done.load(std::memory_order_relaxed))
        all_failed_done = false;
    bool all_live_parked = true;
    for (int r = 0; r < cfg_.nranks; ++r) {
      if (is_failed(r)) continue;
      if (std::find(rec_waiting_.begin(), rec_waiting_.end(), r) !=
          rec_waiting_.end())
        continue;
      all_live_parked = false;
      if (progress_[r].done.load(std::memory_order_relaxed)) {
        // A live rank already returned from fn: it can never join this
        // rendezvous, so the survivor set cannot reach agreement.
        rec_fatal_ = true;
        rec_cv_.notify_all();
        unpark();
        throw team_aborted();
      }
    }

    if (all_live_parked && all_failed_done && rec_pending_) {
      // This thread performs the round's rebuild: every survivor is parked
      // right here and every failed thread has exited, so nobody else can
      // touch clocks, tracers, or mailboxes concurrently — and no stale
      // BorrowToken can still be draining once the abort flag is lifted.
      std::vector<rank_t> survivors;
      for (int r = 0; r < cfg_.nranks; ++r)
        if (!is_failed(r)) survivors.push_back(r);
      HDS_CHECK(!survivors.empty());
      for (rank_t s : survivors) mailboxes_[s]->reset();
      auto st = std::make_unique<detail::CommState>(survivors, cfg_.machine,
                                                    &abort_, cfg_.model);
      detail::CommState* ptr = register_subteam(std::move(st));
      if (auto* rd = race_detector())
        // The agreement is a full join over the survivors: everything any
        // survivor did before the failure happens-before everything any
        // survivor does after recovery.
        rd->on_collective(ptr, obs::OpKind::Agree, ptr->members,
                          /*root_member=*/-1);
      double latest = 0.0;
      for (rank_t s : survivors)
        latest = std::max(latest, clocks_[s].now());
      rec_last_ = RecoveryOutcome{
          ptr, latest + cost_.detect_and_agree(
                            static_cast<int>(survivors.size()))};
      abort_.store(false, std::memory_order_relaxed);
      rec_pending_ = false;
      ++rec_rounds_;
      rec_waiting_.clear();
      rec_cv_.notify_all();
      return rec_last_;
    }
    if (cfg_.model != nullptr) {
      // Controlled schedule: park through the scheduler instead of the
      // condition variable. The predicate recomputes exactly the loop's
      // actionable conditions, so a resumed rank always makes progress.
      lock.unlock();
      cfg_.model->park(model::Site::Recovery, this, static_cast<u64>(world),
                       round,
                       [this, world, round] {
                         return recovery_actionable(world, round);
                       });
      lock.lock();
      if (cfg_.model->run_abandoned()) {
        // Scheduler abandoned the run (deadlock elsewhere / budget): unwind.
        unpark();
        throw team_aborted();
      }
    } else {
      rec_cv_.wait(lock);
    }
  }
}

bool Team::recovery_actionable(rank_t world, u64 round) const {
  std::lock_guard lock(rec_mu_);
  if (rec_fatal_ || rec_rounds_ > round) return true;
  auto is_failed = [&](rank_t r) {
    return std::find(failed_.begin(), failed_.end(), r) != failed_.end();
  };
  bool all_failed_done = true;
  for (rank_t f : failed_)
    if (!progress_[f].done.load(std::memory_order_relaxed))
      all_failed_done = false;
  bool all_live_parked = true;
  for (int r = 0; r < cfg_.nranks; ++r) {
    if (is_failed(r)) continue;
    if (std::find(rec_waiting_.begin(), rec_waiting_.end(), r) !=
        rec_waiting_.end())
      continue;
    all_live_parked = false;
    // A live rank finished without joining: the fatal path is actionable.
    if (progress_[r].done.load(std::memory_order_relaxed)) return true;
  }
  (void)world;
  return all_live_parked && all_failed_done && rec_pending_;
}

usize Team::undelivered_messages() const {
  usize total = 0;
  for (const auto& mb : mailboxes_) total += mb->pending();
  return total;
}

std::vector<std::string> Team::model_quiescence_issues() const {
  std::vector<std::string> issues;
  for (int r = 0; r < cfg_.nranks; ++r) {
    const usize pending = mailboxes_[r]->pending();
    if (pending == 0) continue;
    std::ostringstream os;
    os << "rank " << r << ": " << pending << " undelivered message(s)";
    for (auto [src, tag] : mailboxes_[r]->pending_channels())
      os << " (src=" << src << ", tag=" << tag << ")";
    issues.push_back(os.str());
  }
  // The epoch arena's gate *is* the barrier: a nonzero waiter count after
  // every rank returned means some collective epoch never closed (a rank
  // withdrew or skipped), i.e. the arena was left un-reset.
  auto check_barrier = [&](const detail::CommState& st, const std::string& what) {
    if (st.barrier.waiting() != 0) {
      std::ostringstream os;
      os << what << ": barrier/epoch arena not reset ("
         << st.barrier.waiting() << " arrival(s) recorded)";
      issues.push_back(os.str());
    }
  };
  check_barrier(*world_, "world");
  {
    std::lock_guard lock(subteam_mu_);
    for (usize i = 0; i < subteams_.size(); ++i)
      check_barrier(*subteams_[i], "subteam " + std::to_string(i));
  }
  return issues;
}

}  // namespace hds::runtime
