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
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/key_traits.h"
#include "core/local_sort.h"
#include "runtime/comm.h"

namespace hds::core {

/// Histogramming strategy of the splitter search. Both modes start
/// from the global (min, max) key range — one reduction, no assumptions.
enum class HistogramMode : u8 {
  /// Every round probes candidate keys and counts them exactly with one
  /// dense (lb, ub) allreduce — the paper's Alg. 2/3 baseline.
  Dense,
  /// HSS-style sampled rounds first: each round pools a seeded per-rank
  /// sample of the still-unresolved key range via a sparse gather and
  /// shrinks every boundary's bracket from the weighted sample CDF. Dense
  /// refinement then finishes inside the narrowed brackets, with probes
  /// interpolated from the sample-CDF anchors; a boundary falls back to
  /// strict midpoint bisection once interpolation stalls, so worst-case
  /// round counts stay within ~2x of Dense.
  Hybrid,
};

struct MultiselectConfig {
  /// Load-balance threshold epsilon of Def. 1; 0 = perfect partitioning.
  double epsilon = 0.0;
  HistogramMode histogram = HistogramMode::Dense;
  /// Oversampling factor of the sampled rounds (Hybrid only): each
  /// rank contributes ~(oversample + 2) * sqrt(#boundaries in segment)
  /// systematically sampled keys per search segment per round.
  usize oversample = 8;
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
  // Hybrid histogramming accounting (PR 10). Sampled rounds count toward
  // `iterations` but not `probes_total` (they probe no candidate keys).
  usize sampled_rounds = 0;      ///< sampled-histogram rounds executed
  usize sample_keys_total = 0;   ///< sample keys pooled over sampled rounds
  usize hist_bytes_sampled = 0;  ///< bytes gathered by sampled rounds
  usize hist_bytes_dense = 0;    ///< bytes allreduced by dense rounds
  /// Per-round probe volume, parallel to `convergence`: pooled sample keys
  /// for a sampled round, probed candidate splitters for a dense round.
  std::vector<u32> round_probes;
};

namespace detail {

/// Cap on sampled rounds before dense refinement takes over; rounds also
/// stop early once the sampled CDF stops concentrating the brackets, so the
/// cap only bites on smoothly-converging inputs.
inline constexpr usize kMaxSampledRounds = 8;
/// Seed of the per-(rank, round) sample-position jitter. Identical on all
/// ranks (the pooled sample is decoded redundantly).
inline constexpr u64 kSampleSeed = 0x9e3779b9;

/// Per-boundary search state in uint key space. Invariant (once verified):
/// f(cand_lo - 1) < K <= f(cand_hi) where f(v) = #keys <= v globally.
template <class UK>
struct BoundarySearch {
  UK cand_lo = 0;
  UK cand_hi = 0;
  usize target = 0;
  bool resolved = false;
  bool lo_verified = true;   ///< f(cand_lo - 1) < K known to hold
  bool hi_verified = true;   ///< f(cand_hi) >= K known to hold
  // Hybrid interpolation state (PR 10): a pair of rank anchors straddling
  // the target, seeded from the sampled CDF and tightened to exact counts
  // by every dense probe. Invariant while both exist: ra_lo < K <= ra_hi.
  UK ka_lo = 0;              ///< low anchor key
  UK ka_hi = 0;              ///< high anchor key
  double ra_lo = 0.0;        ///< (estimated) rank at/below ka_lo
  double ra_hi = 0.0;        ///< (estimated) rank just below ka_hi
  bool has_lo = false;       ///< low anchor seeded
  bool has_hi = false;       ///< high anchor seeded
  bool lo_exact = false;     ///< ra_lo came from a dense probe, not the CDF
  bool hi_exact = false;     ///< ra_hi came from a dense probe, not the CDF
  bool force_hi = false;     ///< next probe jumps to cand_hi (empty gap)
  u32 penalty = 0;           ///< interpolation misses; >= 2 locks midpoint
  UK last_probe = 0;         ///< previous probe (repeat guard)
  bool has_last = false;
  bool last_was_interp = false;
  usize last_miss = std::numeric_limits<usize>::max();
};

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
  res.splitter.assign(B, UK{0});
  res.boundary.assign(B, 0);
  res.local_lb.assign(B, 0);
  res.local_ub.assign(B, 0);
  res.global_lb.assign(B, 0);
  res.global_ub.assign(B, 0);
  if (B == 0) return res;

  // Global key range: one (min, max) reduction in bisection space (line 3).
  UK my_min = std::numeric_limits<UK>::max();
  UK my_max = std::numeric_limits<UK>::min();
  if (n_local > 0) {
    my_min = Traits::to_uint(key(sorted_local.front()));
    my_max = Traits::to_uint(key(sorted_local.back()));
  }
  UK range[2] = {my_min, static_cast<UK>(~my_max)};
  UK grange[2];
  comm.allreduce(range, grange, 2,
                 [](UK a, UK b) { return std::min(a, b); });
  const UK gmin = grange[0];
  const UK gmax = static_cast<UK>(~grange[1]);

  // Epsilon window (Def. 1): each boundary may deviate by N*eps/(2P).
  const usize window = static_cast<usize>(
      cfg.epsilon * static_cast<double>(N) / (2.0 * static_cast<double>(P)));

  std::vector<detail::BoundarySearch<UK>> search(B);
  std::vector<usize> active;  // boundaries still being bisected
  for (usize b = 0; b < B; ++b) {
    auto& s = search[b];
    s.target = targets[b];
    if (s.target == 0) {
      // All elements are right of this boundary; no histogramming needed.
      s.resolved = true;
      res.splitter[b] = gmin;
      res.boundary[b] = 0;
      continue;
    }
    if (s.target == N) {
      s.resolved = true;
      res.splitter[b] = gmax;
      res.boundary[b] = N;
      res.local_lb[b] = res.local_ub[b] = n_local;
      res.global_lb[b] = res.global_ub[b] = N;
      continue;
    }
    if (N == 0) {
      s.resolved = true;
      continue;
    }
    s.cand_lo = gmin;
    s.cand_hi = gmax;
    active.push_back(b);
  }

  // --- sampled rounds (Hybrid) ---------------------------------------------
  // Each round pools a seeded per-rank sample of the union of the active
  // brackets through one sparse SampleGather. Exact below-range / in-range
  // counts ride along with the keys, so the pooled CDF is exact outside the
  // sampled range and only the in-range interpolation carries sampling
  // error — which the slack term absorbs before a bracket is trusted.
  // Sampled brackets are unverified; if a dense round disproves one, its
  // failing side is reset to the verified global extreme.
  const bool hybrid = cfg.histogram == HistogramMode::Hybrid;
  if (hybrid && !active.empty() && gmin < gmax) {
    struct WeightedKey {
      u64 key;
      double weight;
    };
    // A maximal run of overlapping active brackets, sampled as one unit.
    // Sampling per segment — not the contiguous hull of all brackets — is
    // what makes successive rounds concentrate: round k's samples land only
    // inside key ranges still unresolved after round k-1, so the effective
    // per-boundary resolution multiplies round over round instead of
    // staying pinned at whole-range resolution.
    struct Segment {
      UK lo, hi;       ///< inclusive key range of the merged brackets
      usize nb;        ///< active boundaries inside (drives sample budget)
      double c_below;  ///< exact global #keys < lo (rides the gather)
      double w;        ///< exact global #keys in [lo, hi]
      double wmax;     ///< heaviest pooled sample weight
      double slack;    ///< rank slack before a sample position is trusted
      usize s_off;     ///< this segment's pool offset in samp / est_le
      usize s_n;       ///< pooled sample keys of this segment
    };
    std::vector<Segment> segs;
    std::vector<usize> seg_of;  // position in `active` -> segment index
    std::vector<u32> idx;
    std::vector<u64> contrib;
    std::vector<std::vector<WeightedKey>> pools;
    std::vector<WeightedKey> samp;  // per-segment pools, concatenated
    std::vector<double> est_le;     // weighted CDF, aligned with samp
    double prev_mass = std::numeric_limits<double>::max();
    // Per-rank, per-segment sample budget. Scaling with sqrt(boundaries)
    // rather than linearly keeps the early hull rounds (one segment
    // covering many boundaries, where evenly spread samples serve them all
    // at once) from gathering far more keys than the CDF resolution needs,
    // while a segment holding a single boundary still gets the full
    // oversample.
    const auto seg_budget = [&](usize nb) {
      return (cfg.oversample + 2) *
             static_cast<usize>(
                 std::ceil(std::sqrt(static_cast<double>(nb))));
    };
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
          segs.back().hi = std::max(segs.back().hi, s.cand_hi);
          ++segs.back().nb;
        } else {
          segs.push_back({s.cand_lo, s.cand_hi, 1, 0, 0, 0, 0, 0, 0});
        }
        seg_of[i] = segs.size() - 1;
      }

      // Local block, segment-major: [keys below lo, keys in [lo, hi],
      // sampled keys...] per segment. The sample count is min(keys in
      // range, (oversample + 2) * boundaries-in-segment) — derivable by
      // every receiver from the replicated budget, so it does not travel.
      const T* base = sorted_local.data();
      contrib.clear();
      Xoshiro256 rng(hash_mix(
          detail::kSampleSeed,
          (static_cast<u64>(comm.rank()) << 8) | static_cast<u64>(round)));
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
        const usize n_in = i1 - i0;
        const usize s_n = std::min(n_in, seg_budget(g.nb));
        contrib.push_back(static_cast<u64>(i0));
        contrib.push_back(static_cast<u64>(n_in));
        // Systematic sampling: position j lands uniformly inside stratum j
        // (deterministic per-(rank, round) jitter), which makes the
        // mid-weight CDF estimator on the receive side unbiased. Forcing
        // the range extremes in would skew it — and the segment edges
        // already carry exact ranks through i0 / n_in. Positions are kept
        // strictly increasing so full-budget coverage degenerates to the
        // exact per-key histogram of the segment.
        if (s_n >= 1) {
          const double stride =
              static_cast<double>(n_in) / static_cast<double>(s_n);
          usize prev = 0;
          for (usize j = 0; j < s_n; ++j) {
            usize pos = static_cast<usize>(
                (static_cast<double>(j) + rng.uniform01()) * stride);
            pos = std::clamp(pos, prev, n_in - s_n + j);
            prev = pos + 1;
            contrib.push_back(static_cast<u64>(
                Traits::to_uint(key(sorted_local[i0 + pos]))));
          }
        }
      }
      comm.charge_batched_search(n_local, 2 * segs.size());
      comm.charge_control_scan(contrib.size());

      std::vector<usize> counts;
      const std::vector<u64> pooled =
          comm.sample_gatherv(std::span<const u64>(contrib), &counts);
      ++res.iterations;
      ++res.sampled_rounds;
      res.hist_bytes_sampled += pooled.size() * sizeof(u64);

      // Decode (identically on every rank): exact per-segment global
      // counts plus the weighted key pools. Each key from rank r carries
      // weight n_in_r / s_n_r — the rank mass it represents.
      pools.assign(segs.size(), {});
      double w_total = 0.0;
      usize off = 0;
      for (int r = 0; r < P; ++r) {
        const usize block_end = off + counts[static_cast<usize>(r)];
        for (Segment& g : segs) {
          const u64 n_in = pooled[off + 1];
          const usize s_n =
              std::min(static_cast<usize>(n_in), seg_budget(g.nb));
          g.c_below += static_cast<double>(pooled[off]);
          g.w += static_cast<double>(n_in);
          const double w =
              s_n ? static_cast<double>(n_in) / static_cast<double>(s_n)
                  : 0.0;
          auto& pg = pools[&g - segs.data()];
          for (usize j = 0; j < s_n; ++j)
            pg.push_back({pooled[off + 2 + j], w});
          off += 2 + s_n;
        }
        HDS_CHECK_MSG(off == block_end,
                      "sampled-round block of rank " << r << " mis-sized");
      }
      for (const Segment& g : segs) w_total += g.w;

      // Concatenate the per-segment pools (disjoint ascending segments, so
      // the concatenation is globally sorted) and build the weighted CDF
      // anchored at each segment's exact below-count.
      usize total_s = 0;
      for (usize gi = 0; gi < segs.size(); ++gi) {
        std::sort(pools[gi].begin(), pools[gi].end(),
                  [](const WeightedKey& a, const WeightedKey& b) {
                    return a.key < b.key;
                  });
        segs[gi].s_off = total_s;
        segs[gi].s_n = pools[gi].size();
        total_s += pools[gi].size();
      }
      samp.clear();
      samp.reserve(total_s);
      est_le.resize(total_s);
      for (Segment& g : segs) {
        double acc = g.c_below;
        for (const WeightedKey& wk : pools[&g - segs.data()]) {
          samp.push_back(wk);
          acc += wk.weight;
          // Mid-weight estimate of #keys <= sample: the sample sits
          // uniformly inside its stratum, so crediting half its weight is
          // unbiased (full weight would run up to one stratum high per
          // rank — a bias that adds coherently across ranks and would
          // swamp the slack). At full coverage (weight 1) this is the
          // exact rank minus 1/2.
          est_le[samp.size() - 1] = acc - 0.5 * wk.weight;
          g.wmax = std::max(g.wmax, wk.weight);
        }
        // Rank slack before a sample position is trusted as a bracket end:
        // one full per-key weight (position-within-weight uncertainty)
        // plus a ~7-sigma CDF error term. The samples are stratified — each
        // rank contributes evenly spaced positions of its sorted run, so
        // per-rank CDF error is bounded by one stratum (~w/S) and the
        // pooled error scales with sqrt(P) strata, not the sqrt(S) an iid
        // sample would need. The rare tail beyond the slack is caught by
        // the wrong-bracket checks (here and in the dense loop).
        g.slack = g.s_n
                      ? g.wmax + 2.0 * std::sqrt(static_cast<double>(P)) *
                                     (g.w / static_cast<double>(g.s_n))
                      : 0.0;
      }
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
        const double* e0 = est_le.data() + g.s_off;
        const WeightedKey* k0 = samp.data() + g.s_off;
        // The below / in-range counts ride the gather exactly, so a target
        // outside (c_below, c_below + w] disproves the bracket outright —
        // an earlier slack-guarded shrink lost the splitter (the rare tail
        // beyond the slack). Reopen the failing side; the exact edge rank
        // seeds the interpolation anchor for the jump back out.
        if (kt <= g.c_below || kt > le_hi) {
          if (kt <= g.c_below) {
            s.cand_lo = gmin;
            s.lo_verified = true;
            if (g.lo > std::numeric_limits<UK>::min()) {
              s.ka_hi = static_cast<UK>(g.lo - 1);
              s.ra_hi = g.c_below;
              s.has_hi = true;
              s.hi_exact = true;
            }
          } else {
            s.cand_hi = gmax;
            s.hi_verified = true;
            s.ka_lo = g.hi;
            s.ra_lo = le_hi;
            s.has_lo = true;
            s.lo_exact = true;
          }
          mass += g.w;
          round_err = std::max(
              round_err, g.w / (2.0 * static_cast<double>(N)));
          continue;
        }
        // cross = first sample position whose estimated rank reaches the
        // target; the raw crossing seeds the interpolation anchors (no
        // safety margin needed — bad anchors only misdirect probes, and the
        // penalty counter catches that), while bracket shrinks below are
        // slack-guarded because a wrong bracket costs a reset. The
        // half-key shift makes the full-coverage case land on the key
        // whose tie class spans the target rank (est == rank - 1/2 there).
        const usize cross = static_cast<usize>(
            std::lower_bound(e0, e0 + g.s_n, kt - 0.5) - e0);
        // Full coverage: every in-range key of every rank fit the budget,
        // so the pooled CDF is the exact histogram of the segment and the
        // crossing key is the exact splitter — collapse the bracket to it
        // and let the next dense round confirm with exact global counts.
        // (At eps == 0 this is the same unique key value every mode must
        // land on: the one whose tie class spans the target rank.)
        if (static_cast<double>(g.s_n) == g.w && cross < g.s_n) {
          const UK k = static_cast<UK>(k0[cross].key);
          if (k >= s.cand_lo && k <= s.cand_hi) {
            s.cand_lo = s.cand_hi = k;
            s.lo_verified = s.hi_verified = true;
            continue;
          }
        }
        // Heavy tie class straddling the target: the crossing key's tie
        // run alone accounts for the target rank with slack to spare on
        // both sides, so it must be the splitter (Def. 4 places the
        // boundary inside its tie run). Collapse without waiting for full
        // coverage — for few-distinct inputs this is the common case, and
        // the value-space bisection it replaces is the dense phase's worst
        // case.
        if (cross < g.s_n) {
          usize run_lo = cross;
          while (run_lo > 0 && k0[run_lo - 1].key == k0[cross].key)
            --run_lo;
          usize run_hi = cross;
          while (run_hi + 1 < g.s_n && k0[run_hi + 1].key == k0[cross].key)
            ++run_hi;
          // #keys < k: exact when the run opens the segment, estimated
          // with slack otherwise; #keys <= k: always estimated with slack.
          const double below = run_lo ? e0[run_lo - 1] : g.c_below;
          const bool below_ok =
              run_lo ? below + g.slack < kt : below < kt;
          if (below_ok && e0[run_hi] - g.slack >= kt) {
            const UK k = static_cast<UK>(k0[cross].key);
            if (k >= s.cand_lo && k <= s.cand_hi) {
              s.cand_lo = s.cand_hi = k;
              s.lo_verified = s.hi_verified = true;
              continue;
            }
          }
        }
        if (cross > 0) {
          s.ka_lo = static_cast<UK>(k0[cross - 1].key);
          s.ra_lo = e0[cross - 1];
          s.has_lo = true;
          s.lo_exact = false;
        } else if (g.lo > std::numeric_limits<UK>::min()) {
          // Target at or below the first sample: the segment's lower edge
          // carries an exact rank (#keys < lo rode the gather).
          s.ka_lo = static_cast<UK>(g.lo - 1);
          s.ra_lo = g.c_below;
          s.has_lo = true;
          s.lo_exact = true;
        }
        if (cross < g.s_n) {
          s.ka_hi = static_cast<UK>(k0[cross].key);
          s.ra_hi = e0[cross];
          s.has_hi = true;
          s.hi_exact = false;
        } else {
          s.ka_hi = g.hi;
          s.ra_hi = le_hi;
          s.has_hi = true;
          s.hi_exact = true;
        }
        usize lo = cross;
        while (lo > 0 && e0[lo - 1] + g.slack >= kt) --lo;
        const bool lo_safe = lo > 0;  // position lo-1 is safely below
        usize hi = cross;
        while (hi < g.s_n && e0[hi] - g.slack < kt) ++hi;
        const bool hi_safe = hi < g.s_n;
        if (lo_safe) {
          const UK k = static_cast<UK>(k0[lo - 1].key);
          if (k > s.cand_lo && k <= s.cand_hi) {
            s.cand_lo = k;
            s.lo_verified = false;
          }
        }
        if (hi_safe) {
          const UK k = static_cast<UK>(k0[hi].key);
          if (k < s.cand_hi && k >= s.cand_lo) {
            s.cand_hi = k;
            s.hi_verified = false;
          }
        }
        const double lo_est = lo_safe ? e0[lo - 1] : g.c_below;
        const double hi_est = hi_safe ? e0[hi] : le_hi;
        const double width = std::max(0.0, hi_est - lo_est);
        mass += width;
        round_err = std::max(
            round_err, width / (2.0 * static_cast<double>(N)));
      }
      res.convergence.push_back(round_err);
      comm.metrics().append(obs::Series::HistogramConvergence, round_err);
      // Stop sampling once the brackets stop concentrating (heavy tie
      // classes pin the slack at wmax — more samples cannot split a tie)
      // or once they are already down to per-key resolution; the dense
      // phase finishes either way.
      if (mass * 2.0 >= prev_mass ||
          mass <= static_cast<double>(active.size()))
        break;
      prev_mass = mass;
    }
  }

  // Safety cap on histogram rounds.
  const usize max_iter = 4 * static_cast<usize>(Traits::key_bits) + 16;

  std::vector<UK> probes;
  std::vector<u64> hist;     // interleaved (lb, ub) per active boundary
  std::vector<u64> ghist;
  std::vector<u32> order;    // probe indices in ascending probe order
  std::vector<K> probe_keys;
  std::vector<usize> lb_s, ub_s;

  while (!active.empty()) {
    HDS_CHECK_MSG(res.iterations < max_iter,
                  "find_splitters failed to converge after "
                      << res.iterations << " iterations");
    ++res.iterations;

    // Probe the midpoint of every unresolved boundary and build the local
    // histogram (lines 6-7). Boundary targets are non-decreasing, so the
    // probes of one iteration are already (nearly) sorted: ordering them by
    // value lets a single forward sweep answer every probe over a
    // successively narrowed subrange instead of running two independent
    // full-width binary searches per probe.
    probes.clear();
    for (usize b : active) {
      auto& s = search[b];
      UK probe = key_midpoint(s.cand_lo, s.cand_hi);
      bool interp = false;
      if (hybrid) {
        if (s.force_hi) {
          // An empty key gap was detected below: interpolation would land
          // in the same plateau again, so jump to the bracket's upper end.
          probe = s.cand_hi;
          s.force_hi = false;
        } else if (s.penalty < 2 && s.has_lo && s.has_hi &&
                   s.ka_lo < s.ka_hi &&
                   s.ra_lo < static_cast<double>(s.target) &&
                   s.ra_hi > s.ra_lo) {
          // Interpolation-search probe between the rank anchors, clamped
          // into the verified bracket; repeat probes degrade to midpoint.
          const double frac =
              std::clamp((static_cast<double>(s.target) - s.ra_lo) /
                             (s.ra_hi - s.ra_lo),
                         0.0, 1.0);
          const double span = static_cast<double>(s.ka_hi - s.ka_lo);
          const UK cand = std::clamp(
              static_cast<UK>(s.ka_lo + static_cast<UK>(span * frac)),
              s.cand_lo, s.cand_hi);
          if (!(s.has_last && cand == s.last_probe)) {
            probe = cand;
            interp = true;
          }
        }
      }
      s.last_was_interp = interp;
      s.last_probe = probe;
      s.has_last = true;
      probes.push_back(probe);
    }
    const usize A = active.size();
    order.resize(A);
    for (usize i = 0; i < A; ++i) order[i] = static_cast<u32>(i);
    std::sort(order.begin(), order.end(),
              [&](u32 x, u32 y) { return probes[x] < probes[y]; });
    probe_keys.clear();
    for (u32 i : order) probe_keys.push_back(Traits::from_uint(probes[i]));
    lb_s.resize(A);
    ub_s.resize(A);
    batched_counts(sorted_local, std::span<const K>(probe_keys), key,
                   lb_s.data(), ub_s.data());
    hist.assign(2 * A, 0);
    for (usize j = 0; j < A; ++j) {
      hist[2 * order[j]] = lb_s[j];
      hist[2 * order[j] + 1] = ub_s[j];
    }
    res.probes_total += A;
    res.round_probes.push_back(static_cast<u32>(A));
    res.hist_bytes_dense += 2 * A * sizeof(u64);
    comm.charge_control_sort(A);
    comm.charge_batched_search(n_local, 2 * A);

    // Global histogram: one allreduce (line 8).
    ghist.assign(hist.size(), 0);
    comm.allreduce(hist.data(), ghist.data(), hist.size(),
                   [](u64 a, u64 b) { return a + b; });

    // Validate each splitter (Alg. 2, with the epsilon window).
    double round_err = 0.0;
    std::vector<usize> still_active;
    for (usize a = 0; a < active.size(); ++a) {
      const usize b = active[a];
      auto& s = search[b];
      const UK probe = probes[a];
      const usize L = ghist[2 * a];
      const usize U = ghist[2 * a + 1];
      const usize KT = s.target;

      const bool accept = (L < KT + window) && (KT <= U + window);
      if (accept) {
        s.resolved = true;
        res.splitter[b] = probe;
        res.local_lb[b] = hist[2 * a];
        res.local_ub[b] = hist[2 * a + 1];
        res.global_lb[b] = L;
        res.global_ub[b] = U;
        // Number of elements ending up left of the boundary: as close to the
        // target as the ties at the splitter allow (always inside the
        // epsilon window when accepted; exactly KT when epsilon == 0).
        res.boundary[b] = std::clamp(KT, L, U);
        continue;
      }
      // Unresolved boundary: distance of the achievable rank interval
      // [L, U] from the target, relative to N (a global quantity — L, U,
      // KT, N are identical on every rank, so the series is too).
      const usize miss = (L >= KT + window) ? L - KT : KT - U;
      round_err = std::max(
          round_err, static_cast<double>(miss) / static_cast<double>(N));
      if (hybrid && s.last_was_interp) {
        // Interpolation must keep (at least) halving the rank miss; two
        // failures permanently lock this boundary to strict midpoint
        // bisection. The penalty is sticky on purpose — letting a key
        // distribution that defeats interpolation (plateaus, heavy ties)
        // earn the probe back after one lucky round costs ~2x the
        // bisection rounds in the worst case.
        if (miss * 2 > s.last_miss) ++s.penalty;
      }
      s.last_miss = miss;
      if (L >= KT + window) {
        // Too many keys below the probe: move the upper bound down.
        s.cand_hi = probe;
        s.hi_verified = true;
        s.ka_hi = probe;
        s.ra_hi = static_cast<double>(L);
        s.hi_exact = true;
        s.has_hi = true;
        if (!s.lo_verified && probe <= s.cand_lo) {
          // Sampled bracket was wrong on the low side: reopen it to the
          // verified global minimum (a disproved bracket never converges).
          s.cand_lo = gmin;
          s.lo_verified = true;
        }
      } else {
        // Too few keys at or below the probe: move the lower bound up.
        if (probe == s.cand_hi && !s.hi_verified) {
          // Sampled bracket was wrong on the high side: reopen it to the
          // verified global maximum.
          s.cand_hi = gmax;
          s.hi_verified = true;
        }
        if (hybrid && s.lo_exact && s.has_lo &&
            static_cast<double>(U) == s.ra_lo && probe > s.ka_lo) {
          // f(<= probe) did not move past the previous exact low anchor:
          // the whole gap (ka_lo, probe] holds no keys, so interpolation
          // would stall inside this plateau — probe the bracket's upper
          // end next round instead. The plateau counts as a miss: the
          // force_hi probe re-probes a key whose counts are already exact
          // and resets last_miss, so without it the penalty never locks
          // the boundary to bisection and interpolation creeps.
          s.force_hi = true;
          ++s.penalty;
        }
        s.ka_lo = probe;
        s.ra_lo = static_cast<double>(U);
        s.lo_exact = true;
        s.has_lo = true;
        s.cand_lo = (probe == std::numeric_limits<UK>::max())
                        ? probe
                        : static_cast<UK>(probe + 1);
        s.lo_verified = true;
        if (s.cand_lo > s.cand_hi && s.hi_verified) s.cand_hi = gmax;
      }
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
