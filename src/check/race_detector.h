// hds::check::RaceDetector — a vector-clock happens-before checker for the
// simulated PGAS runtime.
//
// Why it exists: the runtime executes DASH-style one-sided and collective
// semantics with std::thread ranks whose mutexes *physically* serialize
// accesses that would be genuine data races over DART/MPI one-sided
// communication, so ThreadSanitizer is structurally blind to missing
// logical synchronization (an elided barrier between a put and a get is
// invisible to TSan — the two-barrier collective arena orders everything).
// The detector re-derives ordering from the *logical* shape of each
// operation and flags any cross-rank conflicting access pair the logical
// clocks leave unordered.
//
// Happens-before model (per operation, on a communicator of members M):
//   Barrier, Allreduce, Allgather(v), Alltoall(v)
//                  : full join — every member joins every member's entry
//                    clock (symmetric synchronizing collectives; for the
//                    data ops every rank's output depends on every rank).
//   Broadcast(root): receivers join the root's entry clock only. Two
//                    receivers stay mutually unordered — exactly MPI/DART
//                    semantics, and weaker than the physical execution.
//   Gatherv(root)  : the root joins every member's entry clock; non-root
//                    members only tick. Non-root pairs stay unordered.
//   Send -> Recv   : pairwise — the message carries the sender's clock,
//                    the receiver joins it on delivery. Dropped messages
//                    (fault injection) publish no edge.
//
// Checked accesses (shadow memory):
//   * GlobalVector shard reads/writes (get/put/local) and offsets-index
//     accesses (rebuild_index writes, locate reads), tagged with
//     (rank, epoch, vector clock);
//   * collective epoch-arena traffic: each member's published contribution
//     is a write, each consumption implied by the op's read set is a read.
//     Arena slots are versioned per round, so the in-round check is exactly
//     "the op's own synchronization covers its own data movement" — it can
//     only fire when joins were elided (mutation hooks) or a custom path
//     bypasses the model, and costs O(P^2) transient work per collective.
//
// Any conflicting cross-rank pair (>= 1 write, overlapping ranges) that is
// unordered under the clocks is reported as a PGAS consistency violation
// with both ranks' recent-op rings (the same last-16-ops ring the watchdog
// dump uses).
//
// Threading: one mutex guards all detector state. Logical atomicity of a
// collective transaction is free — the executor publishes its members'
// joins while every member is parked between the collective's two physical
// barriers, so a member's clock never moves mid-transaction. Checked runs
// are correctness runs; the lock is not on any measured path (and never
// touches SimClock, so simulated time is bit-identical with checking off).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/config.h"
#include "check/shadow.h"
#include "check/vector_clock.h"
#include "common/types.h"
#include "obs/events.h"
#include "obs/tracer.h"

namespace hds::check {

/// Thrown out of Team::run when CheckConfig::fail_on_violation is set and
/// the run produced violations.
class pgas_violation : public std::runtime_error {
 public:
  explicit pgas_violation(const std::string& what)
      : std::runtime_error(what) {}
};

/// One side of a violation: who accessed what, when.
struct ViolationSide {
  rank_t rank = 0;
  bool is_write = false;
  u64 epoch = 0;  ///< collective rounds this rank had completed
  u64 stamp = 0;  ///< the rank's own clock component at the access
  std::string what;
  std::string vc;  ///< rendered vector clock at the access
  std::vector<obs::RingEntry> recent;  ///< rank's recent-op ring
};

struct Violation {
  enum class Kind : u8 {
    Shadow,          ///< unordered conflicting shard/index access pair
    CollectiveData,  ///< collective consumed a contribution it is not
                     ///< ordered after (only reachable via elided joins)
  };
  Kind kind = Kind::Shadow;
  std::string location;  ///< e.g. "GlobalVector@0x.../shard 3 [5, 6)"
  ViolationSide prior;
  ViolationSide current;

  std::string to_string() const;
};

/// Result of a checked run. Counters quantify the shadow-memory cost that
/// DESIGN.md sec. 10 discusses.
struct CheckReport {
  int nranks = 0;
  u64 violations_total = 0;  ///< detected (recording caps at max_violations)
  std::vector<Violation> violations;
  u64 collectives_checked = 0;
  u64 p2p_edges = 0;        ///< messages that delivered a clock
  u64 shadow_accesses = 0;  ///< shard/index accesses checked
  u64 shadow_records_peak = 0;  ///< max live records in any location
  u64 joins_applied = 0;        ///< pairwise clock joins published
  u64 joins_elided = 0;         ///< joins suppressed by the mutation hook

  bool clean() const { return violations_total == 0; }
  std::string summary() const;
};

class RaceDetector {
 public:
  explicit RaceDetector(CheckConfig cfg) : cfg_(cfg) {}

  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  const CheckConfig& config() const { return cfg_; }

  /// Reset all clocks and shadow state for a run of `nranks` world ranks.
  /// `tracers` (one per world rank, owned by the Team, alive for the whole
  /// run) provide the recent-op rings violations are reported with.
  void begin_run(int nranks,
                 std::span<const std::unique_ptr<obs::RankTracer>> tracers);

  /// Collective transaction on the communicator identified by `comm_id`.
  /// Must be called by the communicator's executor while every member is
  /// parked between the collective's two barriers. `members` maps member
  /// index to world rank; `root_member` is the member index of the root
  /// for rooted shapes (Broadcast/Gatherv), -1 otherwise.
  void on_collective(const void* comm_id, obs::OpKind op,
                     std::span<const rank_t> members, int root_member);

  /// P2P send: ticks the sender's clock and snapshots it into `vc_out`
  /// (embedded in the in-flight message).
  void on_send(rank_t src_world, std::vector<u64>& vc_out);

  /// P2P receive: ticks the receiver's clock and joins the message clock.
  void on_recv(rank_t dst_world, std::span<const u64> msg_vc);

  /// Shard / metadata access (shadow memory). `object` identifies the
  /// distributed object, `shard` the location within it (kIndexShard for
  /// the offsets index), [begin, end) the element range, `what` a static
  /// label for reports.
  void on_access(rank_t rank, const void* object, int shard, usize begin,
                 usize end, bool is_write, const char* what);

  /// Read-only after Team::run has joined all rank threads.
  const CheckReport& report() const { return report_; }

 private:
  bool should_elide(obs::OpKind op, bool is_world);
  void record_violation(Violation v);
  ViolationSide make_side(rank_t rank, bool is_write, u64 stamp,
                          const char* what) const;

  CheckConfig cfg_;
  std::vector<VectorClock> vc_;  ///< one clock per world rank
  std::vector<u64> epochs_;     ///< collective rounds completed, per rank
  std::span<const std::unique_ptr<obs::RankTracer>> tracers_;
  int nranks_ = 0;

  std::mutex mu_;  ///< guards all mutable detector state
  ShadowMap shadow_;
  CheckReport report_;
  u64 elide_seen_ = 0;  ///< world occurrences of cfg_.elide_op so far
};

}  // namespace hds::check
