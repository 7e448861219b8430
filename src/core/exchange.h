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

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/error.h"
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
/// log2(P) dimensions; k >= P, and k < 2 (SortConfig's default 0), give the
/// single round of the direct exchange.
inline std::vector<int> kary_round_factors(int P, int k) {
  HDS_CHECK(P >= 1);
  if (k < 2) k = P;
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

/// Tunable k-ary swap schedule (DESIGN.md sec. 13), spanning the
/// store-and-forward hypercube at k = 2 (Sec. VI-E1: "ceil(log p) rounds"
/// for small N/P) and the direct exchange at k >= P; cf. diy's
/// SortPartners. View every rank id in the mixed radix given by
/// kary_round_factors(P, k): in round r, ranks sharing all digits except
/// digit r form a group of f_r members, and each rank hands its f_r - 1
/// group partners every bucket whose destination differs in digit r —
/// buckets reach their destination digit by digit, store-and-forward, in
/// ceil(log_k P) rounds for k-smooth P.
///
/// Every round is an ALL-TO-ALLV over the whole team, the same collective
/// (and price) as the single-round exchange: first the run manifests
/// (dest, nruns, runlen... per bucket) as control traffic, then the runs,
/// packed once in member order. A one-round schedule is exchange() itself,
/// by-reference `refs` included; more rounds forward contiguous runs, so
/// they take a sorted `local` and no refs. In the last round each rank
/// also sends its own bucket to itself, so that round's receive buffer is
/// the output: one run per source, in source-rank order, and equal keys
/// leave superstep 4 in the Alltoallv path's order. `round_s`, if given,
/// receives each round's simulated seconds.
template <class T, class UK>
ExchangeResult<T> exchange_kary(runtime::Comm& comm, std::span<const T> local,
                                const SplitterResult<UK>& sp, int k,
                                std::span<const KeyRef<UK>> refs = {},
                                std::vector<double>* round_s = nullptr) {
  const int P = comm.size();
  const std::vector<int> factors = kary_round_factors(P, k);
  if (round_s) round_s->clear();
  if (factors.size() <= 1) return exchange(comm, local, sp, refs);
  HDS_CHECK(refs.empty());
  net::PhaseScope phase(comm.clock(), net::Phase::Exchange);
  const int me = comm.rank();

  ExchangeResult<T> out;
  const std::vector<usize> send = compute_send_counts(comm, local.size(), sp);
  for (int d = 0; d < P; ++d)
    if (d != me) out.elements_sent_off_rank += send[d];
  note_exchange_metrics(comm, send, sizeof(T));

  // Runs in flight, keyed by final destination. A run is a view into
  // `local` or into an earlier round's receive buffer, kept in `arrivals`
  // until no bucket holds a run in it.
  std::vector<std::vector<std::span<const T>>> bucket(P);
  usize off = 0;
  for (int d = 0; d < P; ++d) {
    if (send[d] != 0) bucket[d].push_back(local.subspan(off, send[d]));
    off += send[d];
  }
  std::vector<std::vector<T>> arrivals;
  std::vector<u64> manifest, manifest_in;
  std::vector<T> pack, in;
  std::vector<usize> manifest_counts(P), pack_counts(P), manifest_in_counts,
      in_counts;

  int stride = 1;
  for (usize r = 0; r < factors.size(); ++r) {
    const int f = factors[r];
    const bool last = r + 1 == factors.size();
    const int digit = (me / stride) % f;
    const int base = me - digit * stride;
    const double round_t0 = comm.clock().now();

    // Pack, in member order, every bucket whose destination's round-r digit
    // names a partner; buckets matching this rank's own digit stay put,
    // except in the last round, where they are sent to itself.
    const auto sends_to = [&](int c) { return c != digit || last; };
    usize need = 0;
    for (int d = 0; d < P; ++d)
      if (sends_to((d / stride) % f))
        for (const auto& run : bucket[d]) need += run.size();
    manifest.clear();
    pack.clear();
    pack.reserve(need);
    std::fill(manifest_counts.begin(), manifest_counts.end(), 0);
    std::fill(pack_counts.begin(), pack_counts.end(), 0);
    for (int c = 0; c < f; ++c) {
      if (!sends_to(c)) continue;
      const usize m0 = manifest.size(), p0 = pack.size();
      for (int d = 0; d < P; ++d) {
        if ((d / stride) % f != c || bucket[d].empty()) continue;
        manifest.push_back(static_cast<u64>(d));
        manifest.push_back(bucket[d].size());
        for (const auto& run : bucket[d]) {
          manifest.push_back(run.size());
          pack.insert(pack.end(), run.begin(), run.end());
        }
        bucket[d].clear();
      }
      const auto member = static_cast<usize>(base + c * stride);
      manifest_counts[member] = manifest.size() - m0;
      pack_counts[member] = pack.size() - p0;
    }
    // Release every receive buffer the pack emptied before this round's
    // exchange allocates the next: the last round packs every bucket, so
    // all of them go by then.
    for (std::vector<T>& a : arrivals) {
      const auto in_a = [&, lt = std::less<const T*>{}](
                            const std::span<const T>& run) {
        return !lt(run.data(), a.data()) && lt(run.data(), a.data() + a.size());
      };
      bool held = false;
      for (int d = 0; d < P && !held; ++d)
        held = std::any_of(bucket[d].begin(), bucket[d].end(), in_a);
      if (!held) std::vector<T>().swap(a);
    }
    comm.alltoallv_into(std::span<const u64>(manifest),
                        std::span<const usize>(manifest_counts), manifest_in,
                        manifest_in_counts, {}, net::Traffic::Control);
    comm.alltoallv_into(std::span<const T>(pack),
                        std::span<const usize>(pack_counts), in, in_counts);
    if (round_s) round_s->push_back(comm.clock().now() - round_t0);

    if (last) {
      // Every run received is for this rank, in source order.
      for (usize m = 0; m < manifest_in.size();) {
        HDS_CHECK(manifest_in[m] == static_cast<u64>(me));
        const u64 nruns = manifest_in[m + 1];
        for (u64 q = 0; q < nruns; ++q)
          out.recv_counts.push_back(manifest_in[m + 2 + q]);
        m += 2 + nruns;
      }
      out.data = std::move(in);
      break;
    }

    // Re-file the arrivals by destination, partners in digit order with
    // the runs this rank kept at its own digit, so every bucket lists its
    // runs in source-rank order.
    std::vector<std::vector<std::span<const T>>> kept(P);
    kept.swap(bucket);
    usize moff = 0, poff = 0;
    for (int c = 0; c < f; ++c) {
      if (c == digit) {
        for (int d = 0; d < P; ++d)
          bucket[d].insert(bucket[d].end(), kept[d].begin(), kept[d].end());
        continue;
      }
      const auto member = static_cast<usize>(base + c * stride);
      const usize mend = moff + manifest_in_counts[member];
      while (moff < mend) {
        const auto d = static_cast<usize>(manifest_in[moff]);
        const u64 nruns = manifest_in[moff + 1];
        moff += 2;
        for (u64 q = 0; q < nruns; ++q) {
          const usize len = manifest_in[moff++];
          bucket[d].push_back(std::span<const T>(in).subspan(poff, len));
          poff += len;
        }
      }
    }
    HDS_CHECK(moff == manifest_in.size() && poff == in.size());
    arrivals.push_back(std::move(in));
    in = std::vector<T>();
    stride *= f;
  }
  usize total = 0;
  for (usize c : out.recv_counts) total += c;
  HDS_CHECK(total == out.data.size());
  return out;
}

}  // namespace hds::core
