// Point-to-point messaging between ranks: one MPSC mailbox per rank with
// (source, tag) matching, FIFO per channel, and simulated arrival times so
// the receiver's clock advances consistently with the cost model.
//
// Messages are indexed by (src, tag) channel so pop() is O(log channels)
// instead of O(pending): a rank that receives from every peer may hold up
// to P-1 parked messages, and a linear scan would re-walk all of them on
// every wakeup. push() pairs with a targeted notify_one — each mailbox has
// exactly one consumer (the owning rank), so waking more than one waiter
// is never useful.
#pragma once

#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"
#include "runtime/barrier.h"

namespace hds::runtime {

struct Message {
  rank_t src = 0;
  u64 tag = 0;
  std::vector<std::byte> data;
  double arrival_s = 0.0;  ///< simulated time the message is fully received
  /// Sender's vector clock (hds::check pairwise happens-before edge);
  /// empty — never allocated — unless the run is checked.
  std::vector<u64> hb_vc;
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
  void reset() {
    std::lock_guard lock(mu_);
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
