// Data exchange (Sec. V-B, Alg. 4): turn resolved splitters into a global
// permutation matrix, refine tie boundaries so every output partition meets
// its exact capacity, and perform the ALL-TO-ALLV.
//
// Communication structure mirrors the paper: two O(P)-per-rank ALL-TO-ALL
// collectives to distribute histogram bounds and refined send counts
// (processor j is responsible for "row j" — boundary j — of the matrix),
// followed by the single ALL-TO-ALLV moving the keys. Data is moved exactly
// once, the design property the paper leans on for NUMA friendliness.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "core/kway_merge.h"
#include "core/multiselect.h"
#include "core/radix_sort.h"
#include "runtime/comm.h"

namespace hds::core {

template <class T>
struct ExchangeResult {
  std::vector<T> data;             ///< received elements, grouped by source
  std::vector<usize> recv_counts;  ///< chunk length per source rank
  usize elements_sent_off_rank = 0;
};

/// Per-destination send counts for the sort's exchange: destination d
/// receives the local slice [cut_{d-1}, cut_d), where cut_b is this rank's
/// refined cumulative cut at boundary b — exactly cut_b local elements end
/// up left of boundary b, with Sum_r cut_b[r] == sp.boundary[b]. Boundary b
/// is "owned" by rank b (the paper's "i-th processor is responsible for the
/// i-th row" of the permutation matrix); the last rank owns none.
template <class UK>
std::vector<usize> compute_send_counts(runtime::Comm& comm, usize n_local,
                                       const SplitterResult<UK>& sp) {
  const int P = comm.size();
  const usize B = static_cast<usize>(P - 1);
  HDS_CHECK(sp.boundary.size() == B);

  struct Bounds {
    u64 lb, ub;
  };
  // ALL-TO-ALL #1: send (lb_b, ub_b) of boundary b to its owner rank b.
  std::vector<Bounds> to_owner(P, Bounds{0, 0});
  for (usize b = 0; b < B; ++b)
    to_owner[b] = Bounds{sp.local_lb[b], sp.local_ub[b]};
  std::vector<Bounds> from_ranks(P);
  comm.alltoall(to_owner.data(), 1, from_ranks.data());

  // Owner b: greedily assign the deficit D = B_b - L_b over the tie counts
  // in rank order (the refinement loop of Alg. 4).
  std::vector<u64> cuts(P, 0);  // c_{b,r} computed by owner b = this rank
  const usize b_mine = static_cast<usize>(comm.rank());
  if (b_mine < B) {
    usize deficit = sp.boundary[b_mine] - sp.global_lb[b_mine];
    for (int r = 0; r < P; ++r) {
      const usize tie = from_ranks[r].ub - from_ranks[r].lb;
      const usize take = std::min(tie, deficit);
      cuts[r] = from_ranks[r].lb + take;
      deficit -= take;
    }
    HDS_CHECK_MSG(deficit == 0, "tie refinement could not place "
                                    << deficit << " elements");
    comm.charge_control_scan(P);
  }

  // ALL-TO-ALL #2: owner b returns c_{b,r} to rank r.
  std::vector<u64> my_cuts(P);
  comm.alltoall(cuts.data(), 1, my_cuts.data());

  std::vector<usize> send(P, 0);
  u64 prev = 0;
  for (int d = 0; d < P; ++d) {
    const u64 cut = (d < P - 1) ? my_cuts[d] : n_local;
    HDS_CHECK_MSG(cut >= prev && cut <= n_local,
                  "non-monotone cut at boundary " << d);
    send[d] = cut - prev;
    prev = cut;
  }
  return send;
}

/// Emit this rank's exchange volume into the metrics registry: payload
/// bytes to same-node peers, bytes to off-node peers, and the elements
/// whose destination is the local rank. `elem_bytes` is sizeof(T) of the
/// exchanged records. Called by every exchange variant so the on/off-node
/// split is comparable across them.
inline void note_exchange_metrics(runtime::Comm& comm,
                                  std::span<const usize> send,
                                  usize elem_bytes) {
  auto& m = comm.metrics();
  const auto& machine = comm.machine();
  const rank_t me = comm.world_rank();
  u64 on_node = 0, off_node = 0;
  for (int d = 0; d < comm.size(); ++d) {
    if (d == comm.rank()) continue;
    const u64 b = static_cast<u64>(send[static_cast<usize>(d)]) * elem_bytes;
    if (machine.same_node(me, comm.world_rank_of(d)))
      on_node += b;
    else
      off_node += b;
  }
  m.add(obs::Counter::ExchangeBytesOnNode, on_node);
  m.add(obs::Counter::ExchangeBytesOffNode, off_node);
  m.add(obs::Counter::ExchangeElementsKept,
        send[static_cast<usize>(comm.rank())]);
}

/// The pull alltoallv's view of a by-reference sort's result: the sender
/// sends its records in refs order, read through each KeyRef's index in
/// place. Empty refs: the records are sent as they lie.
template <class UK>
runtime::SendOrder send_order(std::span<const KeyRef<UK>> refs) {
  if (refs.empty()) return {};
  return {reinterpret_cast<const std::byte*>(refs.data()) +
              offsetof(KeyRef<UK>, index),
          sizeof(KeyRef<UK>)};
}

/// Full data exchange: computes send counts and runs the ALL-TO-ALLV.
/// `local` must be the input find_splitters searched: sorted, or, with
/// non-empty `refs`, in any order with `refs` listing it in key order (a
/// by-reference superstep 1, radix_sort_refs). The output is reserved once
/// from the published counts and every receiver appends each source's
/// chunk in one copy, gathering it through the source's refs when it has
/// them (alltoallv_into, DESIGN.md sec. 11).
template <class T, class UK>
ExchangeResult<T> exchange(runtime::Comm& comm, std::span<const T> local,
                           const SplitterResult<UK>& sp,
                           std::span<const KeyRef<UK>> refs = {}) {
  net::PhaseScope phase(comm.clock(), net::Phase::Exchange);
  HDS_CHECK(refs.empty() || refs.size() == local.size());
  ExchangeResult<T> out;
  const std::vector<usize> send = compute_send_counts(comm, local.size(), sp);
  for (int d = 0; d < comm.size(); ++d)
    if (d != comm.rank()) out.elements_sent_off_rank += send[d];
  note_exchange_metrics(comm, send, sizeof(T));
  comm.alltoallv_into(local, std::span<const usize>(send), out.data,
                      out.recv_counts, send_order(refs));
  return out;
}

/// Per-round group sizes of the k-ary swap schedule for P ranks: a greedy
/// factorization of P into the largest factors <= k, so the schedule runs
/// ceil(log_k P) rounds whenever P is k-smooth. When the remaining cofactor
/// has no divisor in [2, k] (e.g. prime P > k) its smallest prime factor is
/// used instead — one wider round rather than a failure, so the schedule
/// exists for every P. k == 2 at a power of two gives the hypercube's
/// log2(P) dimensions; k >= P collapses to a single direct-exchange round.
inline std::vector<int> kary_round_factors(int P, int k) {
  HDS_CHECK(P >= 1);
  if (k < 2) k = 2;
  std::vector<int> factors;
  int rem = P;
  while (rem > 1) {
    int f = std::min(rem, k);
    while (f > 1 && rem % f != 0) --f;
    if (f <= 1) {
      f = rem;  // prime cofactor > k
      for (int d = 2; d * d <= rem; ++d)
        if (rem % d == 0) {
          f = d;
          break;
        }
    }
    factors.push_back(f);
    rem /= f;
  }
  return factors;
}

/// Per-round simulated-time attribution of one rank's k-ary exchange
/// (bench_exchange's round breakdown): communication seconds vs the
/// overlapped merge seconds charged during that round.
struct KAryRoundTrace {
  double comm_s = 0.0;   ///< sends + receives of this round
  double merge_s = 0.0;  ///< overlapped merge of the previous round
};

/// Tunable k-ary swap schedule with merge/communication overlap (PR 7,
/// spanning the store-and-forward hypercube at k = 2 (Sec. VI-E1: "ceil(log
/// p) rounds" for small N/P) and the direct exchange at k = P; cf. diy's
/// SortPartners). View every rank id in the mixed radix
/// given by kary_round_factors(P, k): in round r, ranks sharing all digits
/// except digit r form a group of f_r members, and each rank swaps with its
/// f_r - 1 group partners every bucket whose destination differs in digit
/// r — buckets reach their destination digit by digit, store-and-forward,
/// in ceil(log_k P) rounds for k-smooth P (any P is supported through the
/// factorization fallback).
///
/// With `overlap_merge`, runs that arrive at their final destination in
/// round r-1 are merged with the accumulated output *while round r's
/// borrowed-payload copies are in flight*: the merge is charged through
/// CostModel::overlapped_merge against the round's p2p window, so simulated
/// time models the overlap explicitly. Each drain is one kway_merge_into
/// into a new buffer that replaces the accumulated output. The last batch
/// of arrivals has no later round to hide in and is charged in full.
/// Without `overlap_merge` the chunks are concatenated and recv_counts
/// returned for the superstep-4 merge.
template <class T, class UK, class KeyFn>
ExchangeResult<T> exchange_kary(
    runtime::Comm& comm, std::span<const T> sorted_local,
    const SplitterResult<UK>& sp, KeyFn key, int k, bool overlap_merge,
    std::vector<KAryRoundTrace>* round_trace = nullptr) {
  net::PhaseScope phase(comm.clock(), net::Phase::Exchange);
  const int P = comm.size();
  const int me = comm.rank();
  const std::vector<int> factors = kary_round_factors(P, k);
  const usize nrounds = factors.size();
  if (round_trace) round_trace->assign(nrounds, {});

  ExchangeResult<T> out;
  const std::vector<usize> send =
      compute_send_counts(comm, sorted_local.size(), sp);
  std::vector<usize> offsets(P + 1, 0);
  for (int d = 0; d < P; ++d) offsets[d + 1] = offsets[d] + send[d];
  for (int d = 0; d < P; ++d)
    if (d != me) out.elements_sent_off_rank += send[d];
  note_exchange_metrics(comm, send, sizeof(T));

  auto less = [&](const T& a, const T& b) { return key(a) < key(b); };

  // Runs in flight, keyed by final destination. A run is a *view*: into the
  // caller's sorted_local (initial slices, valid for the whole call) or
  // into an earlier round's arrival buffer (kept alive in `arrivals` until
  // the exchange returns). Store-and-forward therefore costs exactly one
  // copy per forwarding hop — at serialization — plus the single receive
  // copy, and a package holding a single run is lent straight from its
  // source buffer without any serialization copy at all (for k >= P the
  // whole exchange degenerates to lending sorted_local slices).
  std::vector<std::vector<std::span<const T>>> bucket(P);
  for (int d = 0; d < P; ++d)
    if (send[d] != 0 && (d != me || !overlap_merge))
      bucket[d].push_back(sorted_local.subspan(offsets[d], send[d]));
  std::vector<T> acc;
  std::vector<std::span<const T>> pending;  // final-destination arrivals
  std::vector<std::unique_ptr<T[]>> arrivals;  // keep-alive arrival buffers
  // The rank's own kept slice stays in sorted_local until the first drain
  // merges it (as the base run of kway_merge_into) — no upfront copy.
  const std::span<const T> kept = sorted_local.subspan(offsets[me], send[me]);
  bool kept_in_acc = !overlap_merge;

  // Merge the pending runs with the base run (first drain: the kept slice,
  // directly out of sorted_local; later: acc) into a new buffer that then
  // replaces acc; charged by `charge`.
  auto drain_pending = [&](auto&& charge) {
    const std::span<const T> base =
        kept_in_acc ? std::span<const T>(acc) : kept;
    const usize nruns = pending.size() + (base.empty() ? 0 : 1);
    usize add = 0;
    for (const auto& run : pending) add += run.size();
    std::vector<T> next(base.size() + add);
    kway_merge_into(std::span<T>(next), base,
                    std::span<const std::span<const T>>(pending), less);
    acc.swap(next);
    kept_in_acc = true;
    charge(acc.size(), nruns);
    pending.clear();
  };

  const u64 tag_base = 0x4a59ULL << 24;
  int stride = 1;
  for (usize r = 0; r < nrounds; ++r) {
    const int f = factors[r];
    const int digit = (me / stride) % f;
    const int base = me - digit * stride;
    const double round_t0 = comm.clock().now();

    // Serialize one package per group partner: every bucket whose
    // destination's round-r digit matches that partner's digit. Header =
    // [ndests, (dest, nruns, runlen...)...], payload the runs concatenated
    // in header order.
    std::vector<std::vector<u64>> header(f);
    std::vector<std::vector<std::span<const T>>> outruns(f);
    std::vector<std::vector<T>> payload(f);  // only built for >1 run
    for (int c = 0; c < f; ++c) header[c].assign(1, 0);
    for (int d = 0; d < P; ++d) {
      const int dd = (d / stride) % f;
      if (dd == digit || bucket[d].empty()) continue;
      auto& h = header[dd];
      ++h[0];
      h.push_back(static_cast<u64>(d));
      h.push_back(bucket[d].size());
      for (const auto& run : bucket[d]) {
        h.push_back(run.size());
        outruns[dd].push_back(run);
      }
      bucket[d].clear();
    }

    // Post every send of the round before any receive, so the
    // borrowed-payload copies are in flight while the previous round's
    // merge below runs. `window_s` is the p2p time of this round's
    // outgoing copies — the communication window the merge hides under.
    std::vector<runtime::BorrowToken> loans;
    loans.reserve(static_cast<usize>(f) - 1);
    double window_s = 0.0;
    for (int c = 0; c < f; ++c) {
      if (c == digit) continue;
      const int partner = base + c * stride;
      comm.send(partner, tag_base + 2 * r, std::span<const u64>(header[c]),
                net::Traffic::Control);
      std::span<const T> pkg;
      if (outruns[c].size() == 1) {
        pkg = outruns[c][0];  // lend the source buffer itself
      } else if (!outruns[c].empty()) {
        auto& pl = payload[c];
        usize need = 0;
        for (const auto& run : outruns[c]) need += run.size();
        pl.reserve(need);
        for (const auto& run : outruns[c])
          pl.insert(pl.end(), run.begin(), run.end());
        pkg = std::span<const T>(pl);
      }
      loans.push_back(comm.send_borrowed(partner, tag_base + 2 * r + 1, pkg));
      window_s += comm.cost().p2p(comm.world_rank(),
                                  comm.world_rank_of(partner),
                                  pkg.size() * sizeof(T), net::Traffic::Data);
    }

    // Overlap: merge the previous round's final-destination runs while
    // this round's copies are in flight. Only the residue of the merge not
    // hidden by the window lands on the clock (Merge phase, so the obs
    // attribution still reconciles).
    if (overlap_merge && !pending.empty()) {
      net::PhaseScope merge_phase(comm.clock(), net::Phase::Merge);
      const double m0 = comm.clock().now();
      drain_pending([&](usize n, usize nruns) {
        comm.charge_overlapped_merge(n, nruns, window_s);
      });
      if (round_trace) (*round_trace)[r].merge_s = comm.clock().now() - m0;
    }

    // Receive from every group partner and dispatch the runs: final
    // destination runs (d == me) feed the overlap pipeline, the rest are
    // forwarded in a later round. In the last round every digit has been
    // resolved, so every incoming run is for this rank.
    for (int c = 0; c < f; ++c) {
      if (c == digit) continue;
      const int partner = base + c * stride;
      const std::vector<u64> rheader =
          comm.recv<u64>(partner, tag_base + 2 * r);
      usize incoming = 0;
      {
        usize hoff = 1;
        for (u64 e = 0; e < rheader[0]; ++e) {
          hoff++;  // dest
          const u64 nruns = rheader[hoff++];
          for (u64 q = 0; q < nruns; ++q) incoming += rheader[hoff++];
        }
      }
      // The header carries every run length, so the payload lands in an
      // exactly-sized, deliberately uninitialized buffer in one copy from
      // the partner's lent source (a zero-initializing vector here would
      // cost a full extra pass over the arrival data).
      auto raw = std::make_unique_for_overwrite<T[]>(incoming);
      const usize got = comm.recv_into(partner, tag_base + 2 * r + 1,
                                       std::span<T>(raw.get(), incoming));
      HDS_CHECK(got == incoming);
      const std::span<const T> buf(raw.get(), incoming);
      arrivals.push_back(std::move(raw));
      usize hoff = 1, poff = 0;
      for (u64 e = 0; e < rheader[0]; ++e) {
        const int d = static_cast<int>(rheader[hoff++]);
        const u64 nruns = rheader[hoff++];
        for (u64 q = 0; q < nruns; ++q) {
          const u64 len = rheader[hoff++];
          const std::span<const T> run(buf.data() + poff, len);
          if (overlap_merge && d == me)
            pending.push_back(run);
          else
            bucket[d].push_back(run);
          poff += len;
        }
      }
      HDS_CHECK(poff == buf.size());
    }
    // Reclaim the loans only after our own receives: the group round is
    // symmetric, so waiting before them would deadlock it.
    for (auto& loan : loans) loan.wait();
    if (round_trace)
      (*round_trace)[r].comm_s =
          comm.clock().now() - round_t0 - (*round_trace)[r].merge_s;
    stride *= f;
  }

  if (overlap_merge) {
    // The final arrivals have no later round to overlap with: full charge.
    if (!pending.empty()) {
      net::PhaseScope merge_phase(comm.clock(), net::Phase::Merge);
      drain_pending(
          [&](usize n, usize nruns) { comm.charge_kway_merge(n, nruns); });
    }
    if (!kept_in_acc) acc.assign(kept.begin(), kept.end());
    out.data = std::move(acc);
    if (!out.data.empty()) out.recv_counts.push_back(out.data.size());
  } else {
    usize mine = 0;
    for (const auto& run : bucket[me]) mine += run.size();
    out.data.reserve(mine);
    for (const auto& run : bucket[me]) {
      out.data.insert(out.data.end(), run.begin(), run.end());
      out.recv_counts.push_back(run.size());
    }
  }
  usize total = 0;
  for (usize c : out.recv_counts) total += c;
  HDS_CHECK(total == out.data.size());
  return out;
}

}  // namespace hds::core
