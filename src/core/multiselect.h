// Distributed multiselection by histogramming — Algorithms 2 + 3 of the
// paper, the primary contribution.
//
// Given locally sorted partitions and a vector of global target ranks K
// (Def. 3), determine splitter keys S such that the global histogram bounds
// satisfy L_i < K_i <= U_i (Def. 4, with the paper's epsilon relaxation from
// Def. 1). Each iteration bisects every unresolved splitter's candidate key
// range (one bit of the key), computes local histograms by binary search
// (the partitions are sorted), and reduces them with a single ALLREDUCE.
//
// Properties reproduced from Sec. V-A:
//  * iteration count is bounded by the key width, independent of P;
//  * no assumptions on key distribution, rank count, or partition density
//    (empty partitions are fine);
//  * duplicate keys are handled by resolving ties through counts (the
//    boundary refinement of Alg. 4 / exchange.h), not by widening keys.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/key_traits.h"
#include "core/local_sort.h"
#include "runtime/comm.h"

namespace hds::core {

/// Histogramming strategy of the splitter search. Every mode starts
/// from the global (min, max) key range — one reduction, no assumptions.
enum class HistogramMode : u8 {
  /// Every round probes candidate keys and counts them exactly with one
  /// dense (lb, ub) allreduce — the paper's Alg. 2/3 baseline.
  Dense,
  /// HSS-style sampled rounds first: each round pools a seeded sample of
  /// the still-unresolved key range via a sparse gather — about
  /// (kOversample + 2) keys per open boundary over all ranks — and shrinks
  /// every boundary's bracket from the sample CDF. Dense rounds then finish
  /// inside the narrowed brackets: each probes its bracket's midpoint plus
  /// one interpolated key, and the allreduce also returns the nearest real
  /// key on either side of each probe, onto which the bracket ends snap.
  /// The midpoint halves every bracket per round, so the dense rounds stay
  /// within the key width plus one restart for each sampled bracket side
  /// that turns out wrong.
  Hybrid,
  /// Hybrid's rounds, each sampled round run only while the cost model
  /// prices it below the dense rounds it is expected to save (the
  /// bisection bound of the active brackets' bit widths). Declining the
  /// first one runs Dense's exact op sequence.
  Auto,
};

/// Name of a histogram mode as the CLIs and snapshots spell it.
constexpr const char* histogram_mode_name(HistogramMode m) {
  switch (m) {
    case HistogramMode::Dense: return "dense";
    case HistogramMode::Hybrid: return "hybrid";
    case HistogramMode::Auto: return "auto";
  }
  return "?";
}

struct MultiselectConfig {
  /// Load-balance threshold epsilon of Def. 1; 0 = perfect partitioning.
  double epsilon = 0.0;
  /// The bare search defaults to the paper's Dense rounds; core::sort's
  /// SortConfig defaults to Auto.
  HistogramMode histogram = HistogramMode::Dense;
};

/// One Auto pricing of the next sampled round. Every input is the cost
/// model or replicated search state, so every rank records the same.
struct SampleDecision {
  /// Priced sampled round, at its pool bound; at round 0 plus the extra
  /// price of the dense rounds after it being Hybrid's two-probe rounds.
  double sampled_s = 0.0;
  double dense_s = 0.0;       ///< priced dense round over the active brackets
  double saved_rounds = 0.0;  ///< dense rounds the sampled round should save
  bool taken = false;         ///< sampled_s < saved_rounds * dense_s
};

/// Result of find_splitters. All vectors are indexed by boundary
/// b in [0, targets.size()): boundary b separates output partition b from
/// b+1 when used by the sort.
template <class UK>
struct SplitterResult {
  std::vector<UK> splitter;     ///< resolved key (bisection space)
  std::vector<usize> boundary;  ///< resolved global boundary B_b: exactly B_b
                                ///< elements end up left of boundary b
  std::vector<usize> local_lb;  ///< this rank's elements with key < splitter
  std::vector<usize> local_ub;  ///< this rank's elements with key <= splitter
  std::vector<usize> global_lb; ///< sum of local_lb over ranks (L_b)
  std::vector<usize> global_ub; ///< sum of local_ub over ranks (U_b)
  usize iterations = 0;         ///< histogram rounds until convergence
  usize probes_total = 0;       ///< total splitter probes over all rounds
  /// Per-round max over unresolved boundaries of the relative rank error
  /// |achieved - target| / N (0.0 in the round that resolves the last
  /// boundary) — the convergence curve behind the paper's Table 3.
  std::vector<double> convergence;
  // Sampled-round accounting. Sampled rounds count toward `iterations`
  // but not `probes_total` (they probe no candidate keys).
  usize sampled_rounds = 0;      ///< sampled-histogram rounds executed
  usize sample_keys_total = 0;   ///< sample keys pooled over sampled rounds
  usize hist_bytes_sampled = 0;  ///< bytes gathered by sampled rounds
  usize hist_bytes_dense = 0;    ///< bytes allreduced by dense rounds
  /// Per-round probe volume, parallel to `convergence`: pooled sample keys
  /// for a sampled round, probed candidate splitters for a dense round.
  std::vector<u32> round_probes;
  /// Sampled-round bracket repairs: a bracket end an earlier sampled
  /// round's slack-guarded shrink lost, reopened once the segment's exact
  /// counts disprove it, and a sampled top end disproved by an exact
  /// anchor count at or above it.
  usize sampled_reopens = 0;
  usize anchor_disproofs = 0;
  /// Auto only: one pricing per sampled round considered, the last one
  /// declined unless the rounds ended for another reason. Observability
  /// only; not checkpointed.
  std::vector<SampleDecision> decisions;
};

namespace detail {

/// Cap on sampled rounds before dense refinement takes over; rounds also
/// stop early once the sampled CDF stops concentrating the brackets, so the
/// cap only bites on smoothly-converging inputs.
inline constexpr usize kMaxSampledRounds = 8;
/// Seed of the per-(rank, round) sample-position jitter. Identical on all
/// ranks (the pooled sample is decoded redundantly).
inline constexpr u64 kSampleSeed = 0x9e3779b9;
/// Oversampling factor of the sampled rounds: a search segment holding nb
/// open boundaries pools about (kOversample + 2) * nb keys over all ranks
/// per round, so a round pools about P * (kOversample + 2) keys (more only
/// where a segment's estimated mass falls short of its exact one). A
/// round's own pooled CDF resolves a target only to +-(1 + 2 sqrt(ranks))
/// sample weights, so the brackets shrink mostly through the next round's
/// exact anchor counts — by the pool's keys per boundary every two rounds.
/// At 40 keys per boundary the histogram sweep's 16- and 64-rank cells
/// resolve in at most five rounds; 10, 20 and 30 each left a uniform
/// 64-rank cell at 10 (DESIGN.md sec. 16).
inline constexpr usize kOversample = 38;

/// Global sample budget of a search segment holding `nb` open boundaries.
inline usize segment_budget(usize nb) { return (kOversample + 2) * nb; }

/// Rank slack of a sampled segment before a pooled sample position is
/// trusted as a bracket end: one sample weight `wt` for the position inside
/// its stratum, plus four standard deviations of the pooled CDF. Each of
/// the `ranks` ranks holding keys in the segment samples its run with the
/// common stride wt, one jittered position per stratum, so its error at any
/// key is wt * (B - phi), B ~ Bernoulli(phi): variance <= wt^2 / 4, and
/// <= wt * (its keys below the key) for a rank whose share is below one
/// key. Summed over ranks, sigma <= wt * sqrt(min(ranks, 4 * s) / 4) for a
/// pool of s keys — the stratified sqrt(ranks) bound, or HSS's Bernoulli
/// sqrt(s) bound once the shares fall below a quarter key per rank.
inline double sample_slack(double wt, usize ranks, usize s) {
  return wt * (1.0 + 2.0 * std::sqrt(static_cast<double>(
                               std::min(ranks, 4 * s))));
}

/// Per-boundary search state in uint key space. The target lies in the
/// bracket: f(cand_lo - 1) < K <= f(cand_hi), f(v) = #keys <= v globally.
/// Dense probes keep this exact; a bracket end set by a sampled round is an
/// estimate until a dense probe moves it, and a dense probe that crosses it
/// disproves it.
template <class UK>
struct BoundarySearch {
  UK cand_lo = 0;
  UK cand_hi = 0;
  usize target = 0;
  // Hybrid only: the bracket-end counts (exact once a dense probe set the
  // end, a sample-CDF estimate before) and the next interpolated probe.
  double c_lo = 0.0;  ///< #keys < cand_lo
  double c_hi = 0.0;  ///< #keys <= cand_hi
  UK guess = 0;
};

/// The key where rank k falls on the line through (lo, r_lo) and
/// (hi, r_hi), clamped into [lo, hi]; the midpoint when r_hi <= r_lo.
template <class UK>
UK interpolate_key(UK lo, UK hi, double r_lo, double r_hi, double k) {
  if (!(r_hi > r_lo)) return key_midpoint(lo, hi);
  const double frac = std::clamp((k - r_lo) / (r_hi - r_lo), 0.0, 1.0);
  const double span = static_cast<double>(static_cast<UK>(hi - lo));
  const double step = frac * span;
  return step >= span ? hi : static_cast<UK>(lo + static_cast<UK>(step));
}

/// Record probe `key` as boundary b's splitter: local counts (lb, ub),
/// global counts (L, U), and the boundary as close to target K as the ties
/// at the splitter allow (always inside the epsilon window when accepted;
/// exactly K when epsilon == 0).
template <class UK>
void accept_probe(SplitterResult<UK>& res, usize b, UK key, usize lb,
                  usize ub, usize L, usize U, usize K) {
  res.splitter[b] = key;
  res.local_lb[b] = lb;
  res.local_ub[b] = ub;
  res.global_lb[b] = L;
  res.global_ub[b] = U;
  res.boundary[b] = std::clamp(K, L, U);
}

template <class UK>
struct SearchStart {
  UK gmin, gmax;             ///< global key range (bisection space)
  std::vector<usize> active;  ///< boundaries left to search
};

/// Shared set-up of a splitter search: sizes `res` for the targets, reduces
/// the global key range with one allreduce (line 3), and resolves targets 0
/// and N outright. Collective over `comm`.
template <class UK, class T, class KeyFn>
SearchStart<UK> start_search(runtime::Comm& comm, std::span<const T> sorted,
                             KeyFn key, std::span<const usize> targets,
                             usize N, SplitterResult<UK>& res) {
  using Traits = KeyTraits<std::decay_t<decltype(key(std::declval<T>()))>>;
  const usize B = targets.size();
  res.splitter.assign(B, UK{0});
  res.boundary.assign(B, 0);
  res.local_lb.assign(B, 0);
  res.local_ub.assign(B, 0);
  res.global_lb.assign(B, 0);
  res.global_ub.assign(B, 0);

  // (min, ~max) reduce with one min op; an empty rank sends the identity.
  UK range[2] = {std::numeric_limits<UK>::max(),
                 std::numeric_limits<UK>::max()};
  if (!sorted.empty()) {
    range[0] = Traits::to_uint(key(sorted.front()));
    range[1] = static_cast<UK>(~Traits::to_uint(key(sorted.back())));
  }
  UK grange[2];
  comm.allreduce(range, grange, 2,
                 [](UK a, UK b) { return std::min(a, b); });
  SearchStart<UK> st{grange[0], static_cast<UK>(~grange[1]), {}};
  const usize n = sorted.size();
  for (usize b = 0; b < B; ++b) {
    if (targets[b] == 0)  // every key is right of this boundary
      accept_probe(res, b, st.gmin, 0, 0, 0, 0, 0);
    else if (targets[b] == N)
      accept_probe(res, b, st.gmax, n, n, N, N, N);
    else
      st.active.push_back(b);
  }
  return st;
}

/// Make the resolved boundaries non-decreasing, as the exchange needs them
/// for contiguous send ranges. With epsilon > 0, two boundaries whose
/// targets lie less than two windows apart can be accepted at crossing
/// splitters (b below b-1) when their probes are chosen per boundary
/// (Hybrid interpolation, HSS sampling). Such a boundary adopts b-1's
/// splitter and counts, which also lie inside b's window: L' < K_{b-1} + w
/// <= K_b + w, and K_b <= U_b + w <= L' + w. Every boundary is then the
/// target clamped into its splitter's tie range [L_b, U_b], which never
/// decreases and which the tie refinement can always place.
template <class UK>
void make_boundaries_monotone(SplitterResult<UK>& res,
                              std::span<const usize> targets) {
  for (usize b = 1; b < targets.size(); ++b) {
    if (res.splitter[b] < res.splitter[b - 1]) {
      res.splitter[b] = res.splitter[b - 1];
      res.local_lb[b] = res.local_lb[b - 1];
      res.local_ub[b] = res.local_ub[b - 1];
      res.global_lb[b] = res.global_lb[b - 1];
      res.global_ub[b] = res.global_ub[b - 1];
    }
    res.boundary[b] =
        std::clamp(targets[b], res.global_lb[b], res.global_ub[b]);
  }
}

}  // namespace detail

/// Find splitters for arbitrary non-decreasing global target ranks.
///
/// `sorted_local` must be sorted by `key`; `targets` must be identical on
/// all ranks, non-decreasing, and each in [0, N]. Collective over `comm`.
template <class T, class KeyFn>
auto find_splitters(runtime::Comm& comm, std::span<const T> sorted_local,
                    KeyFn key, std::span<const usize> targets,
                    MultiselectConfig cfg = {})
    -> SplitterResult<typename KeyTraits<
        std::decay_t<decltype(key(std::declval<T>()))>>::uint_type> {
  using K = std::decay_t<decltype(key(std::declval<T>()))>;
  using Traits = KeyTraits<K>;
  using UK = typename Traits::uint_type;

  net::PhaseScope phase(comm.clock(), net::Phase::Histogram);
  HDS_ASSERT(is_locally_sorted(sorted_local, key));
  HDS_CHECK(std::is_sorted(targets.begin(), targets.end()));
  HDS_CHECK(cfg.epsilon >= 0.0);

  const usize n_local = sorted_local.size();
  const usize B = targets.size();
  const int P = comm.size();
  const usize N =
      comm.allreduce_value<u64>(n_local, [](u64 a, u64 b) { return a + b; });
  for (usize t : targets) HDS_CHECK_MSG(t <= N, "target rank exceeds N");

  SplitterResult<UK> res;
  if (B == 0) return res;
  // `active`: the boundaries still being searched.
  auto [gmin, gmax, active] =
      detail::start_search(comm, sorted_local, key, targets, N, res);

  // Epsilon window (Def. 1): each boundary may deviate by N*eps/(2P).
  const usize window = static_cast<usize>(
      cfg.epsilon * static_cast<double>(N) / (2.0 * static_cast<double>(P)));

  const HistogramMode mode = cfg.histogram;
  std::vector<detail::BoundarySearch<UK>> search(B);
  for (usize b : active) {
    auto& s = search[b];
    s.target = targets[b];
    s.cand_lo = gmin;
    s.cand_hi = gmax;
    s.c_hi = static_cast<double>(N);
    s.guess = detail::interpolate_key(gmin, gmax, 0.0, s.c_hi,
                                      static_cast<double>(s.target));
  }

  // One probe's counts and the nearest real keys around it: pred < probe <
  // succ. Only the Hybrid dense rounds reduce the keys; Dense moves the
  // paper's (lb, ub).
  struct ProbeCount {
    u64 lb, ub;
    UK pred, succ;
  };

  // --- sampled rounds (Hybrid, Auto) ---------------------------------------
  // Each round pools a seeded sample of the union of the active brackets
  // through one sparse SampleGather. Exact below-range / in-range counts
  // ride along with the keys, so the pooled CDF is exact outside the
  // sampled range and only the in-range interpolation carries sampling
  // error — which the slack term absorbs before a bracket is trusted.
  // Sampled bracket ends are estimates; a dense probe that crosses one
  // disproves it and reopens it to the global extreme.
  if (mode != HistogramMode::Dense && !active.empty() && gmin < gmax) {
    // A maximal run of overlapping active brackets, sampled as one unit.
    // Sampling per segment — not the contiguous hull of all brackets — is
    // what makes successive rounds concentrate: round k's samples land only
    // inside key ranges still unresolved after round k-1.
    struct Segment {
      UK lo = 0, hi = 0;     ///< inclusive key range of the merged brackets
      usize nb = 0;          ///< active boundaries inside (its budget)
      double c_lo = 0.0;     ///< estimated global #keys < lo (bracket ends)
      double c_hi = 0.0;     ///< estimated global #keys <= hi
      double stride = 1.0;   ///< rank keys per sample position, >= 1
      double c_below = 0.0;  ///< exact global #keys < lo (rides the gather)
      double w = 0.0;        ///< exact global #keys in [lo, hi]
      usize ranks = 0;       ///< ranks holding keys in [lo, hi]
      double wt = 0.0;       ///< rank mass one pooled key stands for
      double slack = 0.0;    ///< rank slack before a sample is trusted
      usize s_off = 0;       ///< this segment's offset in the sorted pool
      usize s_n = 0;         ///< pooled sample keys of this segment
    };
    std::vector<Segment> segs;
    std::vector<usize> seg_of;  // position in `active` -> segment index
    std::vector<u8> resolved;   // position in `active` -> accepted this round
    std::vector<u32> idx;
    std::vector<u64> contrib;
    // The pool, sorted once decoded: ascending disjoint segments make each
    // segment's keys one contiguous run of it.
    std::vector<UK> samp;
    // The previous round's pool, narrowed to the keys inside this round's
    // segments, and their exact global #keys <= anchor.
    std::vector<UK> anchors;
    std::vector<double> anchor_le;
    double prev_mass = std::numeric_limits<double>::max();
    const net::CostModel& cost = comm.cost();
    const usize n_mean = N / static_cast<usize>(P);
    for (usize round = 0;
         round < detail::kMaxSampledRounds && !active.empty(); ++round) {
      // Merge the active brackets into disjoint segments — identical on
      // every rank, because the brackets are replicated search state.
      segs.clear();
      seg_of.assign(active.size(), 0);
      idx.resize(active.size());
      for (usize i = 0; i < active.size(); ++i) idx[i] = static_cast<u32>(i);
      std::sort(idx.begin(), idx.end(), [&](u32 x, u32 y) {
        return search[active[x]].cand_lo < search[active[y]].cand_lo;
      });
      for (u32 i : idx) {
        const auto& s = search[active[i]];
        if (!segs.empty() && s.cand_lo <= segs.back().hi) {
          Segment& g = segs.back();
          g.hi = std::max(g.hi, s.cand_hi);
          g.c_lo = std::min(g.c_lo, s.c_lo);
          g.c_hi = std::max(g.c_hi, s.c_hi);
          ++g.nb;
        } else {
          segs.push_back({.lo = s.cand_lo,
                          .hi = s.cand_hi,
                          .nb = 1,
                          .c_lo = s.c_lo,
                          .c_hi = s.c_hi});
        }
        seg_of[i] = segs.size() - 1;
      }
      // The segment's budget is global, (kOversample + 2) keys per open
      // boundary, and every rank samples its keys in the segment at the
      // one common stride: each rank contributes its share of the
      // segment's estimated mass, so the pool stays near the budget
      // however many ranks hold keys. A stride of 1 (budget >= mass)
      // takes every key.
      usize pool_bound = 0;
      for (Segment& g : segs) {
        const usize budget = detail::segment_budget(g.nb);
        pool_bound += budget;
        g.stride = std::max(1.0, (g.c_hi - g.c_lo) /
                                     static_cast<double>(budget));
      }
      // Anchors: the previous round's pooled keys inside this round's
      // segments. Their exact counts ride this round's gather, so every
      // bracket tightens exactly onto the anchors around its target — the
      // HSS histogram of the previous sample, one round late, in the same
      // collective.
      {
        usize kept = 0, gi = 0;
        for (const UK a : anchors) {
          while (gi < segs.size() && a > segs[gi].hi) ++gi;
          if (gi == segs.size()) break;
          if (a >= segs[gi].lo) anchors[kept++] = a;
        }
        anchors.resize(kept);
      }
      const auto anchors_in = [&](UK lo, UK hi) {
        const auto a0 = std::lower_bound(anchors.begin(), anchors.end(), lo);
        const auto a1 = std::upper_bound(a0, anchors.end(), hi);
        return std::pair{static_cast<usize>(a0 - anchors.begin()),
                         static_cast<usize>(a1 - anchors.begin())};
      };

      if (mode == HistogramMode::Auto) {
        // Price this round against the dense rounds it should save, from
        // the cost model and replicated state only: every rank takes the
        // same branch, and pricing adds no op. The saving is the fall of
        // Dense's bisection bound (the largest active bracket's bit
        // width) when each bracket shrinks to the gap between the exact
        // anchors around its target or to the +-slack band its segment's
        // pool resolves, whichever is narrower (one key under full
        // coverage); a bracket is taken as uniform in key space.
        SampleDecision d;
        const usize block = 2 * segs.size() + anchors.size() +
                            div_ceil(pool_bound, usize(P));
        d.sampled_s = cost.sample_gather(P, comm.nodes(),
                                         block * sizeof(u64)) +
                      cost.batched_search(n_mean, 2 * segs.size() +
                                                      anchors.size()) +
                      cost.control_scan(block) +
                      cost.control_sort(pool_bound) +
                      cost.control_scan(pool_bound + active.size());
        // The dense round it competes with: Dense's (lb, ub) per boundary
        // before any sampled round, Hybrid's two probes after.
        const auto dense_round = [&](usize probes, usize probe_bytes) {
          return cost.allreduce(P, comm.nodes(), probes * probe_bytes,
                                net::Traffic::Control) +
                 cost.control_sort(probes) +
                 cost.batched_search(n_mean, 2 * probes) +
                 cost.control_scan(B);
        };
        const double hybrid_s =
            dense_round(2 * active.size(), sizeof(ProbeCount));
        d.dense_s = round == 0 ? dense_round(active.size(), 2 * sizeof(u64))
                               : hybrid_s;
        double bits_now = 0.0, bits_after = 0.0;
        for (usize i = 0; i < active.size(); ++i) {
          const auto& s = search[active[i]];
          const Segment& g = segs[seg_of[i]];
          const double bits = std::log2(
              static_cast<double>(static_cast<UK>(s.cand_hi - s.cand_lo)) +
              1.0);
          bits_now = std::max(bits_now, bits);
          if (g.stride <= 1.0) continue;  // full coverage: one key left
          const double m = std::max(1.0, s.c_hi - s.c_lo);
          const auto [a0, a1] = anchors_in(s.cand_lo, s.cand_hi);
          const double left = std::min(
              m / static_cast<double>(a1 - a0 + 1),
              2.0 * detail::sample_slack(g.stride, usize(P),
                                         detail::segment_budget(g.nb)));
          bits_after = std::max(
              bits_after,
              left >= m ? bits : std::max(0.0, bits + std::log2(left / m)));
        }
        d.saved_rounds = bits_now - bits_after;
        // Taking round 0 also turns the dense rounds left after it into
        // Hybrid's, which probe twice per boundary: charge the difference.
        d.sampled_s += bits_after * (hybrid_s - d.dense_s);
        d.taken = d.sampled_s < d.saved_rounds * d.dense_s;
        res.decisions.push_back(d);
        if (!d.taken) break;
      }

      // Local block: [keys below lo, keys in [lo, hi]] per segment, the
      // keys <= each anchor, then every segment's sampled keys, ascending.
      // Receivers file a key into its segment by value (the segments are
      // disjoint and ascending), so the per-segment sample counts do not
      // travel.
      const T* base = sorted_local.data();
      contrib.clear();
      usize scan = 0;  // segments ascend, so searches narrow monotonically
      for (const Segment& g : segs) {
        const usize i0 = static_cast<usize>(
            std::lower_bound(base + scan, base + n_local, g.lo,
                             [&](const T& e, UK v) {
                               return Traits::to_uint(key(e)) < v;
                             }) -
            base);
        const usize i1 = static_cast<usize>(
            std::upper_bound(base + i0, base + n_local, g.hi,
                             [&](UK v, const T& e) {
                               return v < Traits::to_uint(key(e));
                             }) -
            base);
        scan = i1;
        contrib.push_back(static_cast<u64>(i0));
        contrib.push_back(static_cast<u64>(i1 - i0));
      }
      scan = 0;
      for (const UK a : anchors) {
        scan = static_cast<usize>(
            std::upper_bound(base + scan, base + n_local, a,
                             [&](UK v, const T& e) {
                               return v < Traits::to_uint(key(e));
                             }) -
            base);
        contrib.push_back(static_cast<u64>(scan));
      }
      // Stratified sampling at the common stride: position j lands
      // uniformly inside stratum [j, j + 1) * stride (deterministic
      // per-(rank, round) jitter), and a last partial stratum of length l
      // is sampled with probability l / stride — so a rank contributes its
      // n_in / stride keys in expectation, and a rank whose share is below
      // one key contributes one with that probability. Positions are kept
      // strictly increasing, so a stride of 1 degenerates to the exact
      // per-key histogram of the segment.
      Xoshiro256 rng(hash_mix(
          detail::kSampleSeed,
          (static_cast<u64>(comm.rank()) << 8) | static_cast<u64>(round)));
      for (usize gi = 0; gi < segs.size(); ++gi) {
        const usize i0 = static_cast<usize>(contrib[2 * gi]);
        const usize n_in = static_cast<usize>(contrib[2 * gi + 1]);
        const double stride = segs[gi].stride;
        usize next = 0;
        for (usize j = 0;; ++j) {
          const double x =
              (static_cast<double>(j) + rng.uniform01()) * stride;
          if (x >= static_cast<double>(n_in)) break;
          const usize pos = std::max(static_cast<usize>(x), next);
          if (pos >= n_in) break;
          next = pos + 1;
          contrib.push_back(static_cast<u64>(
              Traits::to_uint(key(sorted_local[i0 + pos]))));
        }
      }
      comm.charge_batched_search(n_local,
                                 2 * segs.size() + anchors.size());
      comm.charge_control_scan(contrib.size());

      // Decode (identically on every rank), straight from the published
      // blocks: exact per-segment and per-anchor global counts plus the
      // pooled keys.
      samp.clear();
      anchor_le.assign(anchors.size(), 0.0);
      usize gathered = 0;
      comm.sample_gatherv(
          std::span<const u64>(contrib),
          [&](int r, std::span<const u64> block) {
            gathered += block.size();
            HDS_CHECK_MSG(block.size() >= 2 * segs.size() + anchor_le.size(),
                          "sampled-round block of rank " << r << " mis-sized");
            usize off = 0;
            for (Segment& g : segs) {
              g.c_below += static_cast<double>(block[off]);
              g.w += static_cast<double>(block[off + 1]);
              g.ranks += block[off + 1] != 0;
              off += 2;
            }
            for (double& le : anchor_le)
              le += static_cast<double>(block[off++]);
            for (; off < block.size(); ++off)
              samp.push_back(static_cast<UK>(block[off]));
          });
      ++res.iterations;
      ++res.sampled_rounds;
      res.hist_bytes_sampled += gathered * sizeof(u64);
      std::sort(samp.begin(), samp.end());

      // Every pooled key of a segment stands for the same rank mass, since
      // the ranks sampled at one stride: the pooled CDF of the i-th key
      // (0-based, ascending) is c_below + (i + 1/2) * wt, anchored at the
      // segment's exact below-count. The half weight is the mid-stratum
      // estimate: the sample sits uniformly inside its stratum, so
      // crediting a full weight would run one stratum high per rank — a
      // bias that adds coherently across ranks and would swamp the slack.
      // At full coverage (wt = 1) it is the exact rank minus 1/2.
      const usize total_s = samp.size();
      double w_total = 0.0;
      usize filed = 0;
      for (Segment& g : segs) {
        g.s_off = static_cast<usize>(
            std::lower_bound(samp.begin(), samp.end(), g.lo) - samp.begin());
        g.s_n = static_cast<usize>(
            std::upper_bound(samp.begin() + g.s_off, samp.end(), g.hi) -
            samp.begin()) - g.s_off;
        g.wt = g.s_n ? g.w / static_cast<double>(g.s_n) : 0.0;
        g.slack = g.s_n ? detail::sample_slack(g.wt, g.ranks, g.s_n) : 0.0;
        w_total += g.w;
        filed += g.s_n;
      }
      HDS_CHECK_MSG(filed == total_s,
                    "sampled-round pool holds keys outside its segments");
      comm.charge_control_sort(total_s);
      comm.charge_control_scan(total_s + active.size());
      res.sample_keys_total += total_s;
      res.round_probes.push_back(static_cast<u32>(total_s));
      if (total_s < 2 || w_total <= 0.0) {
        // Degenerate pool: (almost) nothing left in range — the dense phase
        // resolves the remaining tie mass.
        const double err = w_total / (2.0 * static_cast<double>(N));
        res.convergence.push_back(err);
        comm.metrics().append(obs::Series::HistogramConvergence, err);
        break;
      }

      double mass = 0.0;
      double round_err = 0.0;
      resolved.assign(active.size(), 0);
      usize n_resolved = 0;
      for (usize i = 0; i < active.size(); ++i) {
        auto& s = search[active[i]];
        const Segment& g = segs[seg_of[i]];
        const double kt = static_cast<double>(s.target);
        const double le_hi = g.c_below + g.w;  // exact #keys <= g.hi
        if (g.s_n == 0) {
          // Nothing sampled here (empty range): the dense phase sorts it
          // out; count the unshrunk bracket toward the stall detector.
          mass += g.w;
          round_err = std::max(
              round_err, g.w / (2.0 * static_cast<double>(N)));
          continue;
        }
        const UK* k0 = samp.data() + g.s_off;
        const auto est = [&g](usize j) {
          return g.c_below + (static_cast<double>(j) + 0.5) * g.wt;
        };
        // The below / in-range counts ride the gather exactly, so a target
        // outside (c_below, c_below + w] disproves the bracket outright —
        // an earlier slack-guarded shrink lost the splitter (the rare tail
        // beyond the slack). Reopen the failing side.
        if (kt <= g.c_below || kt > le_hi) {
          ++res.sampled_reopens;
          if (kt <= g.c_below) {
            s.cand_lo = gmin;
            s.c_lo = 0.0;
          } else {
            s.cand_hi = gmax;
            s.c_hi = static_cast<double>(N);
          }
          s.guess = detail::interpolate_key(s.cand_lo, s.cand_hi, s.c_lo,
                                            s.c_hi, kt);
          mass += g.w;
          round_err = std::max(
              round_err, g.w / (2.0 * static_cast<double>(N)));
          continue;
        }
        // The first anchor whose exact count reaches the target bounds the
        // splitter from above, the one before it from below. A lower
        // anchor at the bracket's top disproves the sampled cand_hi; the
        // segment's exact top count then bounds the splitter instead.
        {
          const auto [a0, a1] = anchors_in(s.cand_lo, s.cand_hi);
          usize j = a0;
          for (usize hi_j = a1; j < hi_j;) {
            const usize mid = j + (hi_j - j) / 2;
            if (anchor_le[mid] < kt)
              j = mid + 1;
            else
              hi_j = mid;
          }
          if (j > a0) {
            const UK a = anchors[j - 1];
            if (a >= s.cand_hi) {
              ++res.anchor_disproofs;
              s.cand_hi = g.hi;
              s.c_hi = le_hi;
            }
            s.cand_lo = static_cast<UK>(a + 1);
            s.c_lo = anchor_le[j - 1];
          }
          if (j < a1) {
            s.cand_hi = anchors[j];
            s.c_hi = anchor_le[j];
          }
        }
        // cross = first sample position whose estimated rank reaches the
        // target; the raw crossing yields the first dense round's
        // interpolated probe (no safety margin needed — a bad guess only
        // costs a probe), while bracket shrinks below are slack-guarded
        // because a wrong bracket costs a restart. The half-key shift makes
        // the full-coverage case land on the key whose tie class spans the
        // target rank (est == rank - 1/2 there).
        usize cross = 0;
        for (usize hi_i = g.s_n; cross < hi_i;) {
          const usize mid = cross + (hi_i - cross) / 2;
          if (est(mid) < kt - 0.5)
            cross = mid + 1;
          else
            hi_i = mid;
        }
        // Full coverage: every in-range key of every rank was pooled, so
        // the pooled CDF is the exact histogram of the segment and the
        // crossing key is the exact splitter, with exact global counts —
        // accept it here, without a dense round to confirm it. (At
        // eps == 0 this is the same unique key value every mode must land
        // on: the one whose tie class spans the target rank.)
        if (static_cast<double>(g.s_n) == g.w && cross < g.s_n) {
          const UK k = k0[cross];
          const usize L = static_cast<usize>(g.c_below) +
                          static_cast<usize>(
                              std::lower_bound(k0, k0 + g.s_n, k) - k0);
          const usize U = static_cast<usize>(g.c_below) +
                          static_cast<usize>(
                              std::upper_bound(k0, k0 + g.s_n, k) - k0);
          if (L < s.target + window && s.target <= U + window) {
            const T* const end = base + n_local;
            const usize lb = static_cast<usize>(
                std::lower_bound(base, end, k,
                                 [&](const T& e, UK v) {
                                   return Traits::to_uint(key(e)) < v;
                                 }) -
                base);
            const usize ub = static_cast<usize>(
                std::upper_bound(base + lb, end, k,
                                 [&](UK v, const T& e) {
                                   return v < Traits::to_uint(key(e));
                                 }) -
                base);
            detail::accept_probe(res, active[i], k, lb, ub, L, U, s.target);
            resolved[i] = 1;
            ++n_resolved;
            continue;
          }
        }
        // Heavy tie class straddling the target: the crossing key's tie
        // run alone accounts for the target rank with slack to spare on
        // both sides, so it must be the splitter (Def. 4 places the
        // boundary inside its tie run). Collapse without waiting for full
        // coverage — for few-distinct inputs this is the common case.
        if (cross < g.s_n) {
          usize run_lo = cross;
          while (run_lo > 0 && k0[run_lo - 1] == k0[cross]) --run_lo;
          usize run_hi = cross;
          while (run_hi + 1 < g.s_n && k0[run_hi + 1] == k0[cross]) ++run_hi;
          // #keys < k: exact when the run opens the segment, estimated
          // with slack otherwise; #keys <= k: always estimated with slack.
          const double below = run_lo ? est(run_lo - 1) : g.c_below;
          const bool below_ok =
              run_lo ? below + g.slack < kt : below < kt;
          if (below_ok && est(run_hi) - g.slack >= kt) {
            const UK k = k0[cross];
            if (k >= s.cand_lo && k <= s.cand_hi) {
              s.cand_lo = s.cand_hi = k;
              continue;
            }
          }
        }
        // Sample-CDF guess: the target interpolated between the pooled keys
        // that straddle it, or the segment edge (exact rank) where the
        // target lies outside the pool.
        s.guess = detail::interpolate_key(
            cross > 0 ? k0[cross - 1] : g.lo, cross < g.s_n ? k0[cross] : g.hi,
            cross > 0 ? est(cross - 1) : g.c_below,
            cross < g.s_n ? est(cross) : le_hi, kt);
        usize lo = cross;
        while (lo > 0 && est(lo - 1) + g.slack >= kt) --lo;
        const bool lo_safe = lo > 0;  // position lo-1 is safely below
        usize hi = cross;
        while (hi < g.s_n && est(hi) - g.slack < kt) ++hi;
        const bool hi_safe = hi < g.s_n;
        if (lo_safe) {
          const UK k = k0[lo - 1];
          if (k > s.cand_lo && k <= s.cand_hi) {
            s.cand_lo = k;
            s.c_lo = est(lo - 1);
          }
        }
        if (hi_safe) {
          const UK k = k0[hi];
          if (k < s.cand_hi && k >= s.cand_lo) {
            s.cand_hi = k;
            s.c_hi = est(hi);
          }
        }
        if (s.guess < s.cand_lo || s.guess > s.cand_hi)
          s.guess = detail::interpolate_key(s.cand_lo, s.cand_hi, s.c_lo,
                                            s.c_hi, kt);
        const double lo_est = lo_safe ? est(lo - 1) : g.c_below;
        const double hi_est = hi_safe ? est(hi) : le_hi;
        const double width =
            std::max(0.0, std::min(hi_est - lo_est, s.c_hi - s.c_lo));
        mass += width;
        round_err = std::max(
            round_err, width / (2.0 * static_cast<double>(N)));
      }
      res.convergence.push_back(round_err);
      comm.metrics().append(obs::Series::HistogramConvergence, round_err);
      if (n_resolved > 0) {
        // The local counts of the splitters accepted under full coverage.
        comm.charge_batched_search(n_local, 2 * n_resolved);
        usize kept = 0;
        for (usize i = 0; i < active.size(); ++i)
          if (!resolved[i]) active[kept++] = active[i];
        active.resize(kept);
      }
      // This round's pool is the next round's anchors.
      samp.erase(std::unique(samp.begin(), samp.end()), samp.end());
      anchors.swap(samp);
      // Stop sampling once the brackets stop concentrating (heavy tie
      // classes pin the slack at the tie mass — more samples cannot split
      // a tie) or once they are already down to per-key resolution; the
      // dense phase finishes either way.
      if (mass * 2.0 >= prev_mass ||
          mass <= static_cast<double>(active.size()))
        break;
      prev_mass = mass;
    }
  }
  // The dense rounds: Hybrid's probe rule once a sampled round ran (and
  // always when pinned), the paper's otherwise.
  const bool hybrid =
      mode == HistogramMode::Hybrid || res.sampled_rounds > 0;


  // Safety cap on histogram rounds.
  const usize max_iter = 4 * static_cast<usize>(Traits::key_bits) + 16;

  std::vector<UK> probes;
  std::vector<usize> first;  // active[a] owns probes [first[a], first[a+1])
  std::vector<ProbeCount> loc, glob;
  std::vector<u64> hist, ghist;  // Dense: interleaved (lb, ub) per probe
  std::vector<u32> order;    // probe indices in ascending probe order
  std::vector<K> probe_keys;
  std::vector<usize> lb_s, ub_s;

  while (!active.empty()) {
    HDS_CHECK_MSG(res.iterations < max_iter,
                  "find_splitters failed to converge after "
                      << res.iterations << " iterations");
    ++res.iterations;

    // Probe the midpoint of every unresolved boundary and build the local
    // histogram (lines 6-7); Hybrid also probes its interpolated key when
    // that differs. Boundary targets are non-decreasing, so the probes of
    // one iteration are already (nearly) sorted: ordering them by value
    // lets a single forward sweep answer every probe over a successively
    // narrowed subrange instead of running two independent full-width
    // binary searches per probe.
    probes.clear();
    first.clear();
    for (usize b : active) {
      const auto& s = search[b];
      first.push_back(probes.size());
      const UK mid = key_midpoint(s.cand_lo, s.cand_hi);
      const UK guess = std::clamp(s.guess, s.cand_lo, s.cand_hi);
      probes.push_back(mid);
      if (hybrid && guess != mid) probes.push_back(guess);
    }
    first.push_back(probes.size());
    const usize M = probes.size();
    order.resize(M);
    for (usize i = 0; i < M; ++i) order[i] = static_cast<u32>(i);
    std::sort(order.begin(), order.end(),
              [&](u32 x, u32 y) { return probes[x] < probes[y]; });
    probe_keys.clear();
    for (u32 i : order) probe_keys.push_back(Traits::from_uint(probes[i]));
    lb_s.resize(M);
    ub_s.resize(M);
    batched_counts(sorted_local, std::span<const K>(probe_keys), key,
                   lb_s.data(), ub_s.data());
    // pred is the largest local key < probe, succ the smallest > probe.
    loc.resize(M);
    for (usize j = 0; j < M; ++j) {
      const usize lb = lb_s[j], ub = ub_s[j];
      loc[order[j]] = {
          lb, ub, lb ? Traits::to_uint(key(sorted_local[lb - 1])) : UK{0},
          ub < n_local ? Traits::to_uint(key(sorted_local[ub]))
                       : std::numeric_limits<UK>::max()};
    }
    res.probes_total += M;
    res.round_probes.push_back(static_cast<u32>(M));
    comm.charge_control_sort(M);
    comm.charge_batched_search(n_local, 2 * M);

    // Global histogram: one allreduce (line 8). Hybrid reduces
    // (lb, ub, pred, succ) by (sum, sum, max, min); the key sentinels of
    // empty sides are never read, since a probe with too many keys below
    // has L >= 1 and one with too few at or below has U < N. Dense knows
    // no neighbouring keys: the probe itself bounds the bracket from above
    // and probe + 1 from below.
    glob.resize(M);
    if (hybrid) {
      comm.allreduce(loc.data(), glob.data(), M,
                     [](const ProbeCount& x, const ProbeCount& y) {
                       return ProbeCount{x.lb + y.lb, x.ub + y.ub,
                                         std::max(x.pred, y.pred),
                                         std::min(x.succ, y.succ)};
                     });
      res.hist_bytes_dense += M * sizeof(ProbeCount);
    } else {
      hist.resize(2 * M);
      for (usize i = 0; i < M; ++i) {
        hist[2 * i] = loc[i].lb;
        hist[2 * i + 1] = loc[i].ub;
      }
      ghist.assign(2 * M, 0);
      comm.allreduce(hist.data(), ghist.data(), 2 * M,
                     [](u64 a, u64 b) { return a + b; });
      for (usize i = 0; i < M; ++i)
        glob[i] = {ghist[2 * i], ghist[2 * i + 1], probes[i],
                   static_cast<UK>(probes[i] + 1)};
      res.hist_bytes_dense += 2 * M * sizeof(u64);
    }

    // Validate each splitter (Alg. 2, with the epsilon window). A probe
    // that misses moves one bracket end onto the nearest key its exact
    // counts allow, and only ever narrows the bracket. If that crosses the
    // other end, the other end was a sampled estimate these counts
    // disprove: reopen it to the global extreme.
    double round_err = 0.0;
    std::vector<usize> still_active;
    for (usize a = 0; a < active.size(); ++a) {
      const usize b = active[a];
      auto& s = search[b];
      const usize KT = s.target;
      bool accepted = false;
      usize miss = std::numeric_limits<usize>::max();
      for (usize i = first[a]; i < first[a + 1] && !accepted; ++i) {
        const usize L = glob[i].lb, U = glob[i].ub;
        if (L < KT + window && KT <= U + window) {
          detail::accept_probe(res, b, probes[i], loc[i].lb, loc[i].ub, L,
                               U, KT);
          accepted = true;
        } else if (L >= KT + window) {
          // Too many keys below the probe: move the upper end down.
          miss = std::min(miss, L - KT);
          if (glob[i].pred < s.cand_hi) {
            s.cand_hi = glob[i].pred;
            s.c_hi = static_cast<double>(L);
            if (s.cand_hi < s.cand_lo) {
              s.cand_lo = gmin;
              s.c_lo = 0.0;
            }
          }
        } else {
          // Too few keys at or below the probe: move the lower end up.
          miss = std::min(miss, KT - U);
          if (glob[i].succ > s.cand_lo) {
            s.cand_lo = glob[i].succ;
            s.c_lo = static_cast<double>(U);
            if (s.cand_lo > s.cand_hi) {
              s.cand_hi = gmax;
              s.c_hi = static_cast<double>(N);
            }
          }
        }
      }
      if (accepted) continue;
      // Unresolved boundary: distance of the achievable rank interval
      // [L, U] from the target, relative to N (a global quantity — L, U,
      // KT, N are identical on every rank, so the series is too).
      round_err = std::max(
          round_err, static_cast<double>(miss) / static_cast<double>(N));
      s.guess = detail::interpolate_key(s.cand_lo, s.cand_hi, s.c_lo, s.c_hi,
                                        static_cast<double>(KT));
      still_active.push_back(b);
    }
    res.convergence.push_back(round_err);
    comm.metrics().append(obs::Series::HistogramConvergence, round_err);
    active.swap(still_active);
    comm.charge_control_scan(B);  // splitter validation pass
  }
  comm.metrics().add(obs::Counter::HistogramIterations, res.iterations);
  comm.metrics().add(obs::Counter::SplitterProbes, res.probes_total);
  comm.metrics().add(obs::Counter::SampledRounds, res.sampled_rounds);
  comm.metrics().add(obs::Counter::SampleKeysGathered, res.sample_keys_total);
  comm.metrics().add(obs::Counter::HistogramBytesSampled,
                     res.hist_bytes_sampled);
  comm.metrics().add(obs::Counter::HistogramBytesDense, res.hist_bytes_dense);

  detail::make_boundaries_monotone(res, targets);
  return res;
}

}  // namespace hds::core
