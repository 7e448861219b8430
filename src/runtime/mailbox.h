// Point-to-point messaging between ranks: one MPSC mailbox per rank with
// (source, tag) matching, FIFO per channel, and simulated arrival times so
// the receiver's clock advances consistently with the cost model.
//
// Messages are indexed by (src, tag) channel so pop() is O(log channels)
// instead of O(pending): the k-ary exchange at k = P posts a header and a
// payload from every peer in one round, so a rank's mailbox holds up to
// 2(P-1) parked messages, and a linear scan would re-walk all of them on
// every wakeup. push() pairs with a targeted notify_one — each mailbox has
// exactly one consumer (the owning rank), so waking more than one waiter
// is never useful.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"
#include "runtime/barrier.h"

namespace hds::runtime {

/// Rendezvous handle for a borrowed-payload send (Comm::send_borrowed).
/// The sender's buffer is lent to the receiver by pointer; the receiver
/// copies it out and signals, and the sender must not free or mutate the
/// buffer until wait() returns. Signal/wait pair under the mutex, so the
/// receiver's copy happens-before the sender's reuse in the host-thread
/// (TSan) sense as well as logically.
class BorrowState {
 public:
  void signal() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
  }

  /// Block until the receiver released the buffer. Throws team_aborted if
  /// the team is poisoned while waiting (polled: the token is not wired
  /// into the Team's poison fan-out). Under a controlled schedule the poll
  /// is replaced by a scheduler park — spinning would starve every other
  /// rank of the baton.
  void wait(const std::atomic<bool>* abort,
            model::ScheduleHook* hook = nullptr) {
    if (hook != nullptr) {
      park(abort, hook);
      std::lock_guard lock(mu_);
      if (!done_) throw team_aborted();  // released in abort mode
      return;
    }
    std::unique_lock lock(mu_);
    while (!done_) {
      if (abort->load(std::memory_order_relaxed)) throw team_aborted();
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  /// Non-throwing drain for unwind paths (BorrowToken's destructor):
  /// returns once the loan is returned, or once the team is aborting — in
  /// which case the receiver is unwinding too and will not touch the
  /// buffer again.
  void wait_nothrow(const std::atomic<bool>* abort,
                    model::ScheduleHook* hook = nullptr) noexcept {
    if (hook != nullptr) {
      park(abort, hook);  // returns with the loan done or the team aborting
      return;
    }
    std::unique_lock lock(mu_);
    while (!done_) {
      if (abort == nullptr || abort->load(std::memory_order_relaxed)) return;
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  bool done() const {
    std::lock_guard lock(mu_);
    return done_;
  }

 private:
  /// Controlled-schedule wait: ready once the loan returned or the team is
  /// aborting (either way nobody touches the buffer again).
  void park(const std::atomic<bool>* abort,
            model::ScheduleHook* hook) noexcept {
    hook->park(model::Site::Borrow, this, 0, 0, [this, abort] {
      std::lock_guard lock(mu_);
      return done_ || abort == nullptr ||
             abort->load(std::memory_order_relaxed);
    });
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

struct Message {
  rank_t src = 0;
  u64 tag = 0;
  std::vector<std::byte> data;
  double arrival_s = 0.0;  ///< simulated time the message is fully received
  /// Sender's vector clock (hds::check pairwise happens-before edge);
  /// empty — never allocated — unless the run is checked.
  std::vector<u64> hb_vc;
  /// Borrowed-payload transport (Comm::send_borrowed): the payload stays in
  /// the sender's buffer and `data` stays empty. The receiver copies
  /// `borrowed_bytes` from `borrowed` and signals `borrow` to return the
  /// loan. A fault-dropped borrowed send signals immediately instead.
  const std::byte* borrowed = nullptr;
  usize borrowed_bytes = 0;
  std::shared_ptr<BorrowState> borrow;
};

class Mailbox {
 public:
  explicit Mailbox(const std::atomic<bool>* abort_flag, rank_t owner = 0,
                   model::ScheduleHook* hook = nullptr)
      : owner_(owner), abort_(abort_flag), hook_(hook) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void push(Message msg) {
    const rank_t src = msg.src;
    const u64 tag = msg.tag;
    {
      std::lock_guard lock(mu_);
      auto& q = channels_[{src, tag}];
      // Seeded mutation hook (model checker only): deliver this message
      // ahead of the channel's queued ones — a FIFO violation the explorer
      // must catch as an output divergence.
      if (hook_ != nullptr && !q.empty() &&
          hook_->mutate_reorder_push(static_cast<int>(owner_),
                                     static_cast<int>(src), tag))
        q.push_front(std::move(msg));
      else
        q.push_back(std::move(msg));
      ++pending_;
    }
    if (hook_ != nullptr)
      hook_->note_effect(model::Site::Mailbox, this, static_cast<u64>(src),
                         tag);
    cv_.notify_one();
  }

  /// Pop the oldest message matching (src, tag). Blocks; throws team_aborted
  /// if the team is poisoned while waiting.
  Message pop(rank_t src, u64 tag) {
    const std::pair<rank_t, u64> key{src, tag};
    if (hook_ != nullptr) {
      hook_->park(model::Site::Mailbox, this, static_cast<u64>(src), tag,
                  [this, key] {
                    std::lock_guard lock(mu_);
                    return channels_.find(key) != channels_.end() ||
                           abort_->load(std::memory_order_relaxed);
                  });
      std::lock_guard lock(mu_);
      auto it = channels_.find(key);
      if (it == channels_.end()) throw team_aborted();  // abort-mode release
      Message out = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) channels_.erase(it);
      --pending_;
      return out;
    }
    std::unique_lock lock(mu_);
    for (;;) {
      if (abort_->load(std::memory_order_relaxed)) throw team_aborted();
      if (auto it = channels_.find(key); it != channels_.end()) {
        Message out = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) channels_.erase(it);
        --pending_;
        return out;
      }
      cv_.wait(lock);
    }
  }

  void poison() {
    std::lock_guard lock(mu_);
    cv_.notify_all();
  }

  /// Drop every undelivered message (failure recovery: stale messages from
  /// the aborted epoch must not be matched by post-recovery receives).
  /// Pending borrowed payloads are signalled — their senders have unwound
  /// past the abort and nobody will read the buffers again.
  void reset() {
    std::lock_guard lock(mu_);
    for (auto& [key, q] : channels_)
      for (auto& m : q)
        if (m.borrow) m.borrow->signal();
    channels_.clear();
    pending_ = 0;
  }

  /// Undelivered messages sitting in this mailbox (watchdog diagnostic).
  usize pending() const {
    std::lock_guard lock(mu_);
    return pending_;
  }

  /// (src, tag) of up to `max` undelivered channels, for the watchdog dump:
  /// a receiver stuck on one channel often has the "wrong" message queued.
  std::vector<std::pair<rank_t, u64>> pending_channels(usize max = 4) const {
    std::lock_guard lock(mu_);
    std::vector<std::pair<rank_t, u64>> out;
    for (const auto& [key, q] : channels_) {
      if (out.size() >= max) break;
      if (!q.empty()) out.push_back(key);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// FIFO per (src, tag); empty deques are erased so the map stays small.
  std::map<std::pair<rank_t, u64>, std::deque<Message>> channels_;
  usize pending_ = 0;
  rank_t owner_;  ///< world rank this mailbox belongs to (model footprints)
  const std::atomic<bool>* abort_;
  model::ScheduleHook* hook_;  ///< controlled scheduling; null in production
};

}  // namespace hds::runtime
