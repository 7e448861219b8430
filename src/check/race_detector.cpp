#include "check/race_detector.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "net/sim.h"

namespace hds::check {

namespace {

/// Logical synchronization shape of a collective (see header).
enum class Shape : u8 { FullJoin, Star, Pairwise };

/// Exhaustive on purpose — no default. -Wswitch forces a decision here for
/// every new OpKind, and the opid-coverage lint rule (tools/lint_hds.py)
/// cross-checks this table against the model checker's transition table
/// (model/transitions.h) so an op cannot get HB semantics in one and none
/// in the other.
Shape shape_of(obs::OpKind op) {
  switch (op) {
    case obs::OpKind::Barrier:
    case obs::OpKind::Allreduce:
    case obs::OpKind::Allgather:
    case obs::OpKind::Allgatherv:
    case obs::OpKind::Alltoall:
    case obs::OpKind::Alltoallv:
    case obs::OpKind::Agree:  // survivor agreement: full join over survivors
    case obs::OpKind::SampleGather:  // every rank consumes every sample block
      return Shape::FullJoin;
    case obs::OpKind::Broadcast:
    case obs::OpKind::Gatherv:
      return Shape::Star;
    case obs::OpKind::None:
    case obs::OpKind::Send:
    case obs::OpKind::Recv:
    case obs::OpKind::Compute:    // tracer-only; never reaches on_collective
    case obs::OpKind::Checkpoint: // buddy transfer: pairwise by construction
      return Shape::Pairwise;
  }
  return Shape::Pairwise;
}

void append_ring(std::ostringstream& os,
                 const std::vector<obs::RingEntry>& recent) {
  if (recent.empty()) {
    os << "\n      (no recent ops)";
    return;
  }
  for (const auto& e : recent) {
    os << "\n      #" << e.seq << " " << obs::op_kind_name(e.op)
       << " phase=" << net::phase_name(e.phase) << " t=" << e.t << "s";
    if (e.bytes > 0) os << " bytes=" << e.bytes;
    if (e.peer >= 0) os << " peer=" << e.peer;
    if (e.op == obs::OpKind::Send || e.op == obs::OpKind::Recv)
      os << " tag=" << e.tag;
  }
}

void append_side(std::ostringstream& os, const char* label,
                 const ViolationSide& s) {
  os << "\n  " << label << ": rank " << s.rank << " "
     << (s.is_write ? "WRITE" : "READ") << " (" << s.what << ") at epoch "
     << s.epoch << ", event " << s.stamp << ", clock " << s.vc
     << "\n    recent ops (oldest first):";
  append_ring(os, s.recent);
}

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "PGAS consistency violation ("
     << (kind == Kind::Shadow ? "unordered shadow access"
                              : "unordered collective data consumption")
     << ") at " << location << ":\n  the two accesses below are concurrent "
     << "under the logical happens-before order — over one-sided "
     << "communication their outcome would be undefined.";
  append_side(os, "prior  ", prior);
  append_side(os, "current", current);
  return os.str();
}

std::string CheckReport::summary() const {
  std::ostringstream os;
  os << "hds::check: " << violations_total << " violation"
     << (violations_total == 1 ? "" : "s") << " over " << nranks
     << " ranks (" << collectives_checked << " collectives, " << p2p_edges
     << " p2p edges, " << shadow_accesses << " shadow accesses, "
     << joins_applied << " joins";
  if (joins_elided > 0) os << ", " << joins_elided << " elided";
  os << ")";
  for (const Violation& v : violations) os << "\n" << v.to_string();
  if (violations_total > violations.size())
    os << "\n... " << (violations_total - violations.size())
       << " further violations not recorded (max_violations)";
  return os.str();
}

void RaceDetector::begin_run(
    int nranks, std::span<const std::unique_ptr<obs::RankTracer>> tracers) {
  std::lock_guard lock(mu_);
  HDS_CHECK(nranks >= 1);
  HDS_CHECK(tracers.size() == static_cast<usize>(nranks));
  nranks_ = nranks;
  tracers_ = tracers;
  vc_.assign(static_cast<usize>(nranks), VectorClock(nranks));
  epochs_.assign(static_cast<usize>(nranks), 0);
  shadow_.clear();
  report_ = CheckReport{};
  report_.nranks = nranks;
  elide_seen_ = 0;
}

bool RaceDetector::should_elide(obs::OpKind op, bool is_world) {
  if (!is_world || op != cfg_.elide_op) return false;
  return elide_seen_++ == cfg_.elide_index;
}

ViolationSide RaceDetector::make_side(rank_t rank, bool is_write, u64 stamp,
                                      const char* what) const {
  ViolationSide s;
  s.rank = rank;
  s.is_write = is_write;
  s.epoch = epochs_[static_cast<usize>(rank)];
  s.stamp = stamp;
  s.what = what;
  s.vc = vc_[static_cast<usize>(rank)].to_string();
  s.recent = tracers_[static_cast<usize>(rank)]->ring_snapshot();
  return s;
}

void RaceDetector::record_violation(Violation v) {
  ++report_.violations_total;
  if (report_.violations.size() < cfg_.max_violations)
    report_.violations.push_back(std::move(v));
}

void RaceDetector::on_collective(const void* comm_id, obs::OpKind op,
                                 std::span<const rank_t> members,
                                 int root_member) {
  std::lock_guard lock(mu_);
  const int P = static_cast<int>(members.size());
  const Shape shape = shape_of(op);
  HDS_CHECK(shape != Shape::Pairwise);
  HDS_CHECK(shape != Shape::Star || (root_member >= 0 && root_member < P));

  ++report_.collectives_checked;
  const bool elide = should_elide(op, /*is_world=*/P == nranks_);

  // Entry: every member's participation is one event; contributions are
  // stamped with the member's entry clock.
  std::vector<u64> stamps(static_cast<usize>(P));
  std::vector<VectorClock> snaps;
  snaps.reserve(static_cast<usize>(P));
  for (int m = 0; m < P; ++m) {
    const auto w = static_cast<usize>(members[m]);
    stamps[static_cast<usize>(m)] = vc_[w].tick(w);
    snaps.push_back(vc_[w]);
  }

  // Joins per logical shape, from the entry snapshots.
  auto join = [&](int dst, int src) {
    if (dst == src) return;
    vc_[static_cast<usize>(members[dst])].join(snaps[static_cast<usize>(src)]);
    ++report_.joins_applied;
  };
  if (elide) {
    // Mutation hook: count the joins the shape would have published, apply
    // none of them.
    u64 skipped = 0;
    switch (shape) {
      case Shape::FullJoin: skipped = static_cast<u64>(P) * (P - 1); break;
      case Shape::Star: skipped = 2u * static_cast<u64>(P - 1); break;
      case Shape::Pairwise: break;
    }
    report_.joins_elided += skipped;
  } else {
    switch (shape) {
      case Shape::FullJoin:
        for (int d = 0; d < P; ++d)
          for (int s = 0; s < P; ++s) join(d, s);
        break;
      case Shape::Star:
        // Data edge root -> receivers (Broadcast) and contribution edges
        // members -> root (Gatherv) share one shape: everyone joins the
        // root, the root joins everyone; non-root pairs stay unordered.
        for (int m = 0; m < P; ++m) {
          join(m, root_member);
          join(root_member, m);
        }
        break;
      case Shape::Pairwise:
        break;
    }
  }

  // Epoch-arena consumption check: every contribution the op's read set
  // says a member consumes must be ordered after its publication. The read
  // set is covered by the join shape, so this can only fire when joins
  // were elided — which is exactly what the mutation tests assert.
  auto check_read = [&](int reader, int src) {
    if (reader == src) return;
    const auto rw = static_cast<usize>(members[reader]);
    const auto sw = static_cast<usize>(members[src]);
    if (vc_[rw].ordered_after(sw, stamps[static_cast<usize>(src)])) return;
    Violation v;
    v.kind = Violation::Kind::CollectiveData;
    std::ostringstream loc;
    loc << op_kind_name(op) << " arena slot of member " << src << " (world "
        << sw << ") on communicator " << comm_id << ", round "
        << epochs_[sw] + 1;
    v.location = loc.str();
    v.prior = make_side(members[src], /*is_write=*/true,
                        stamps[static_cast<usize>(src)], "contribution");
    v.current = make_side(members[reader], /*is_write=*/false,
                          stamps[static_cast<usize>(reader)], "consumption");
    record_violation(std::move(v));
  };
  switch (op) {
    case obs::OpKind::Barrier:
      break;  // no data
    case obs::OpKind::Broadcast:
      for (int m = 0; m < P; ++m) check_read(m, root_member);
      break;
    case obs::OpKind::Gatherv:
      for (int m = 0; m < P; ++m) check_read(root_member, m);
      break;
    default:  // symmetric data collectives: everyone consumes everyone
      for (int d = 0; d < P; ++d)
        for (int s = 0; s < P; ++s) check_read(d, s);
      break;
  }

  for (int m = 0; m < P; ++m) ++epochs_[static_cast<usize>(members[m])];
}

void RaceDetector::on_send(rank_t src_world, std::vector<u64>& vc_out) {
  std::lock_guard lock(mu_);
  const auto w = static_cast<usize>(src_world);
  vc_[w].tick(w);
  const auto comps = vc_[w].components();
  vc_out.assign(comps.begin(), comps.end());
}

void RaceDetector::on_recv(rank_t dst_world, std::span<const u64> msg_vc) {
  std::lock_guard lock(mu_);
  const auto w = static_cast<usize>(dst_world);
  vc_[w].tick(w);
  if (!msg_vc.empty()) {
    vc_[w].join(msg_vc);
    ++report_.p2p_edges;
  }
}

void RaceDetector::on_access(rank_t rank, const void* object, int shard,
                             usize begin, usize end, bool is_write,
                             const char* what) {
  std::lock_guard lock(mu_);
  const auto w = static_cast<usize>(rank);
  ++report_.shadow_accesses;

  AccessRecord rec;
  rec.rank = rank;
  rec.is_write = is_write;
  rec.begin = begin;
  rec.end = end;
  rec.stamp = vc_[w].tick(w);
  rec.epoch = epochs_[w];
  rec.what = what;

  ShadowLocation& loc = shadow_[{object, shard}];
  for (const AccessRecord& prior : loc.records) {
    if (prior.rank == rank) continue;
    if (!prior.is_write && !is_write) continue;
    if (!ranges_overlap(prior.begin, prior.end, begin, end)) continue;
    if (vc_[w].ordered_after(static_cast<usize>(prior.rank), prior.stamp))
      continue;
    Violation v;
    v.kind = Violation::Kind::Shadow;
    std::ostringstream os;
    os << "object " << object << " / "
       << (shard == kIndexShard ? std::string("offsets index")
                                : "shard " + std::to_string(shard));
    if (!(begin == 0 && end == kWholeRange) ||
        !(prior.begin == 0 && prior.end == kWholeRange)) {
      const usize lo = std::max(begin, prior.begin);
      const usize hi = std::min(end, prior.end);
      os << " elements [" << lo << ", ";
      if (hi == kWholeRange)
        os << "end";
      else
        os << hi;
      os << ")";
    }
    v.location = os.str();
    v.prior.rank = prior.rank;
    v.prior.is_write = prior.is_write;
    v.prior.epoch = prior.epoch;
    v.prior.stamp = prior.stamp;
    v.prior.what = prior.what;
    v.prior.vc = prior.vc.to_string();
    v.prior.recent = prior.recent;
    v.current = make_side(rank, is_write, rec.stamp, what);
    record_violation(std::move(v));
  }

  rec.vc = vc_[w];
  rec.recent = tracers_[w]->ring_snapshot();
  loc.add(std::move(rec));
  if (loc.records.size() > 64) loc.prune(vc_);
  report_.shadow_records_peak =
      std::max<u64>(report_.shadow_records_peak, loc.records.size());
}

}  // namespace hds::check
