// hds::model static schedule matcher — recording half.
//
// A ScheduleRecorder installed via TeamConfig::recorder turns a run into a
// ghost schedule capture: every Comm::note_op appends one symbolic record
// (world rank, communicator signature, op, class, peer, tag) before any
// payload moves or any barrier is entered. Payload movement and simulated
// time are untouched — the recorder is a pure tap — and because the record
// lands *before* the op executes, the per-rank schedules survive a
// collective_mismatch abort, which is exactly when the matcher is most
// useful: it reports the first cross-rank divergence instead of the
// runtime's "members entered different collectives" postmortem.
//
// verify() lints the captured schedules:
//   1. on every communicator, all member ranks issued the identical
//      sequence of arena collectives (transition_of(op) == Collective —
//      P2P, Agree and Checkpoint are excluded so legal cross-collective
//      point-to-point patterns and recovery rendezvous don't
//      false-positive);
//   2. every (src, dst, tag) send count equals the matching recv count.
//
// Header-only on purpose: runtime/comm.h calls the recording taps inline,
// and hds_model links hds_runtime — an out-of-line recorder would make the
// two libraries mutually dependent.
#pragma once

#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.h"
#include "model/transitions.h"
#include "obs/events.h"

namespace hds::model {

/// One symbolic schedule record (one Comm::note_op call).
struct OpRecord {
  u64 comm_sig = 0;  ///< signature of the communicator's member list
  obs::OpKind op = obs::OpKind::None;
  obs::OpClass cls = obs::OpClass::None;
  i32 peer = -1;  ///< world rank of root/partner, -1 if none
  u64 tag = 0;
};

class ScheduleRecorder {
 public:
  /// Tap from Comm::note_op. Thread-safe (every rank thread records).
  void note_op(rank_t world, const std::vector<rank_t>& members,
               obs::OpKind op, obs::OpClass cls, i32 peer, u64 tag) {
    const u64 sig = signature(members);
    std::lock_guard lock(mu_);
    comms_.try_emplace(sig, members);
    by_rank_[world].push_back(OpRecord{sig, op, cls, peer, tag});
  }

  /// Lint the captured schedules; empty = the communication schedule
  /// matches across ranks. Call after Team::run returned (or threw).
  std::vector<std::string> verify() const {
    std::lock_guard lock(mu_);
    std::vector<std::string> issues;
    verify_collective_sequences(issues);
    verify_send_recv_pairing(issues);
    return issues;
  }

  /// Total records captured (all ranks).
  usize ops() const {
    std::lock_guard lock(mu_);
    usize n = 0;
    for (const auto& [rank, recs] : by_rank_) n += recs.size();
    return n;
  }

  /// Distinct communicator signatures seen.
  usize communicators() const {
    std::lock_guard lock(mu_);
    return comms_.size();
  }

  void clear() {
    std::lock_guard lock(mu_);
    by_rank_.clear();
    comms_.clear();
  }

 private:
  /// FNV-1a over the member list: stable signature for "the same
  /// communicator" across ranks (every member publishes the identical,
  /// member-ordered list).
  static u64 signature(const std::vector<rank_t>& members) {
    u64 h = 1469598103934665603ull;
    for (rank_t r : members) {
      h ^= static_cast<u64>(static_cast<i64>(r));
      h *= 1099511628211ull;
    }
    return h;
  }

  /// Check 1: identical arena-collective sequence per communicator. The op
  /// kind — not just the class — must match position by position; a member
  /// that issued nothing on a communicator it belongs to is a divergence
  /// too (it will park at some other site while its peers wait here).
  void verify_collective_sequences(std::vector<std::string>& issues) const {
    std::map<u64, std::map<rank_t, std::vector<obs::OpKind>>> seq;
    for (const auto& [rank, recs] : by_rank_)
      for (const OpRecord& r : recs)
        if (transition_of(r.op) == Transition::Collective)
          seq[r.comm_sig][rank].push_back(r.op);

    for (const auto& [sig, per_rank] : seq) {
      const auto& members = comms_.at(sig);
      auto seq_of = [&](rank_t m) -> std::vector<obs::OpKind> {
        auto it = per_rank.find(m);
        return it != per_rank.end() ? it->second : std::vector<obs::OpKind>{};
      };
      const rank_t ref_rank = members.front();
      const std::vector<obs::OpKind> ref = seq_of(ref_rank);
      for (rank_t m : members) {
        if (m == ref_rank) continue;
        const std::vector<obs::OpKind> mine = seq_of(m);
        if (mine == ref) continue;
        usize i = 0;  // first divergence index
        while (i < ref.size() && i < mine.size() && ref[i] == mine[i]) ++i;
        std::ostringstream os;
        os << "collective sequence mismatch on communicator {";
        for (usize k = 0; k < members.size(); ++k)
          os << (k ? "," : "") << members[k];
        os << "}: rank " << ref_rank << " op[" << i << "]="
           << (i < ref.size() ? obs::op_kind_name(ref[i]) : "<end>")
           << " but rank " << m << " op[" << i << "]="
           << (i < mine.size() ? obs::op_kind_name(mine[i]) : "<end>");
        issues.push_back(os.str());
        break;  // one report per communicator keeps the lint readable
      }
    }
  }

  /// Check 2: sends key on (me -> peer, tag); recvs key on (peer -> me,
  /// tag). Equal multisets mean every posted message has a matching
  /// receive.
  void verify_send_recv_pairing(std::vector<std::string>& issues) const {
    std::map<std::tuple<rank_t, rank_t, u64>, i64> balance;
    for (const auto& [rank, recs] : by_rank_)
      for (const OpRecord& r : recs) {
        if (transition_of(r.op) == Transition::SendLike &&
            r.cls == obs::OpClass::Send)
          ++balance[{rank, static_cast<rank_t>(r.peer), r.tag}];
        else if (transition_of(r.op) == Transition::RecvLike)
          --balance[{static_cast<rank_t>(r.peer), rank, r.tag}];
      }
    for (const auto& [key, n] : balance) {
      if (n == 0) continue;
      const auto [src, dst, tag] = key;
      std::ostringstream os;
      if (n > 0)
        os << n << " unreceived send(s) " << src << " -> " << dst << " tag "
           << tag;
      else
        os << -n << " unmatched recv(s) at " << dst << " from " << src
           << " tag " << tag;
      issues.push_back(os.str());
    }
  }

  mutable std::mutex mu_;
  /// Per world rank, in issue order.
  std::map<rank_t, std::vector<OpRecord>> by_rank_;
  /// First-seen member list per communicator signature.
  std::map<u64, std::vector<rank_t>> comms_;
};

}  // namespace hds::model
