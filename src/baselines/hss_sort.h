// Histogram Sort with Sampling (HSS) — a faithful reimplementation of the
// algorithm behind the paper's Charm++ comparator (Harsh, Kale & Solomonik,
// SPAA'19, the paper's ref [1]).
//
// Differences from the paper's own sort (multiselect.h) that this module
// deliberately reproduces:
//  * splitter probes are drawn from random *samples* of the active key
//    ranges, re-drawn every round, instead of deterministic key-range
//    bisection — convergence is probabilistic and visibly volatile, which is
//    what the paper's Figs. 2/3 show for Charm++;
//  * the implementation carries the Charm++ limitation of power-of-two rank
//    counts (the reason the evaluation schedules 16 of 28 cores per node);
//  * if the probes fail to pin all splitters within `max_rounds`, the sort
//    throws hss_timeout — mirroring the wall-clock timeouts the paper
//    observed on normally distributed keys.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/exchange.h"
#include "core/local_sort.h"
#include "core/merge.h"
#include "core/multiselect.h"
#include "runtime/comm.h"

namespace hds::baselines {

class hss_timeout : public std::runtime_error {
 public:
  explicit hss_timeout(usize rounds)
      : std::runtime_error("HSS histogramming did not converge within " +
                           std::to_string(rounds) + " rounds") {}
};

struct HssConfig {
  /// Total sample budget per rank per round (HSS keeps the per-round sample
  /// volume O(P), not O(P * boundaries)). Each rank contributes one
  /// candidate to a pseudo-random subset of the active boundaries.
  usize samples_per_round = 64;
  double epsilon = 0.0;
  u64 seed = 1;
  usize max_rounds = 512;
  core::MergeStrategy merge = core::MergeStrategy::Sort;
};

struct HssStats {
  usize rounds = 0;
  usize probes_total = 0;
  usize elements_after = 0;
};

/// HSS distributed sort. Requires a power-of-two rank count (Charm++
/// implementation constraint); throws argument_error otherwise.
template <class T>
HssStats hss_sort(runtime::Comm& comm, std::vector<T>& local,
                  const HssConfig& cfg = {}) {
  using Traits = core::KeyTraits<T>;
  using UK = typename Traits::uint_type;
  core::IdentityKey identity;
  const int P = comm.size();
  if (!is_pow2(static_cast<u64>(P)))
    throw argument_error(
        "hss_sort: rank count must be a power of two (implementation "
        "constraint of the reference Charm++ code)");

  HssStats stats;
  {
    net::PhaseScope phase(comm.clock(), net::Phase::LocalSort);
    core::local_sort(comm, local, identity);
  }
  const std::span<const T> sorted(local.data(), local.size());

  net::PhaseScope hist_phase(comm.clock(), net::Phase::Histogram);
  const u64 N = comm.allreduce_value<u64>(local.size(),
                                          [](u64 a, u64 b) { return a + b; });

  // Targets: prefix sums of capacities (same output contract as hds).
  std::vector<u64> capacities(P);
  const u64 mine = local.size();
  comm.allgather(&mine, 1, capacities.data());
  const usize B = static_cast<usize>(P - 1);
  std::vector<usize> targets(B);
  {
    u64 acc = 0;
    for (usize b = 0; b < B; ++b) {
      acc += capacities[b];
      targets[b] = acc;
    }
  }
  const usize window = static_cast<usize>(
      cfg.epsilon * static_cast<double>(N) / (2.0 * P));

  // Per-boundary active key ranges, in bisection space.
  struct Range {
    UK lo;  // exclusive-below bound: all keys <= lo are left of the target
    UK hi;
    bool resolved;
  };
  core::SplitterResult<UK> result;
  result.splitter.assign(B, UK{0});
  result.boundary.assign(B, 0);
  result.local_lb.assign(B, 0);
  result.local_ub.assign(B, 0);
  result.global_lb.assign(B, 0);
  result.global_ub.assign(B, 0);

  UK my_min = std::numeric_limits<UK>::max();
  UK my_max = std::numeric_limits<UK>::min();
  if (!local.empty()) {
    my_min = Traits::to_uint(identity(local.front()));
    my_max = Traits::to_uint(identity(local.back()));
  }
  UK range_in[2] = {my_min, static_cast<UK>(~my_max)};
  UK range_out[2];
  comm.allreduce(range_in, range_out, 2,
                 [](UK a, UK b) { return std::min(a, b); });
  const UK gmin = range_out[0];
  const UK gmax = static_cast<UK>(~range_out[1]);

  std::vector<Range> ranges(B);
  std::vector<usize> active;
  for (usize b = 0; b < B; ++b) {
    if (targets[b] == 0 || N == 0) {
      ranges[b] = {UK{0}, UK{0}, true};
      result.splitter[b] = gmin;
      result.boundary[b] = 0;
    } else if (targets[b] == N) {
      ranges[b] = {UK{0}, UK{0}, true};
      result.splitter[b] = gmax;
      result.boundary[b] = N;
      result.local_lb[b] = result.local_ub[b] = local.size();
      result.global_lb[b] = result.global_ub[b] = N;
    } else {
      ranges[b] = {gmin, gmax, false};
      active.push_back(b);
    }
  }

  Xoshiro256 rng(hash_mix(cfg.seed, comm.rank()));
  std::vector<UK> probes;
  std::vector<u64> hist, ghist;

  while (!active.empty()) {
    if (stats.rounds >= cfg.max_rounds) throw hss_timeout(cfg.max_rounds);
    ++stats.rounds;

    // Each rank samples one candidate key for a pseudo-random subset of the
    // active boundaries, keeping the per-round pool at O(P * budget) total.
    // Candidates are drawn uniformly from the rank's keys inside the
    // boundary's active range — this is the sampling whose noise produces
    // the volatile convergence of the Charm++ runs.
    struct Cand {
      u64 boundary;
      UK key;
    };
    std::vector<Cand> my_cands;
    const double select_prob = std::min(
        1.0, static_cast<double>(cfg.samples_per_round) /
                 static_cast<double>(active.size()));
    for (usize a = 0; a < active.size(); ++a) {
      const usize b = active[a];
      // Deterministic per-(round, rank, boundary) participation decision;
      // checked before any local work so the per-round cost stays at the
      // sample budget, not O(active).
      const u64 h = hash_mix(cfg.seed ^ (stats.rounds * 0x9e37ULL),
                             (static_cast<u64>(comm.rank()) << 32) ^ b);
      if (static_cast<double>(h % 10000) >= select_prob * 10000.0) continue;
      const Range& r = ranges[b];
      const T lo_key = Traits::from_uint(r.lo);
      const T hi_key = Traits::from_uint(r.hi);
      const usize i0 = core::count_below_equal(sorted, lo_key, identity);
      const usize i1 = core::count_below_equal(sorted, hi_key, identity);
      UK cand;
      if (i1 > i0) {
        const usize idx = i0 + rng.uniform_u64(0, i1 - i0 - 1);
        cand = Traits::to_uint(identity(local[idx]));
      } else {
        cand = core::key_midpoint(r.lo, r.hi);  // no local keys in range
      }
      my_cands.push_back(Cand{b, cand});
    }
    comm.charge_binary_search(local.size(), 2 * my_cands.size());
    // The central processor (HSS's "root") collects the pool, picks one
    // probe per boundary, and broadcasts the probe vector — doing the
    // selection once, not on every rank.
    std::vector<Cand> pool =
        comm.gatherv(std::span<const Cand>(my_cands), /*root=*/0);
    probes.assign(active.size(), UK{0});
    if (comm.rank() == 0) {
      std::sort(pool.begin(), pool.end(), [](const Cand& x, const Cand& y) {
        return std::tie(x.boundary, x.key) < std::tie(y.boundary, y.key);
      });
      comm.charge_control_sort(pool.size());
      // Probe per boundary: the median of its pooled candidates (rank-space
      // bisection on the sample); midpoint fallback when nobody sampled it.
      for (usize a = 0; a < active.size(); ++a) {
        const usize b = active[a];
        const auto lo_it = std::lower_bound(
            pool.begin(), pool.end(), b,
            [](const Cand& c, usize key) { return c.boundary < key; });
        auto hi_it = lo_it;
        while (hi_it != pool.end() && hi_it->boundary == b) ++hi_it;
        if (lo_it == hi_it) {
          probes[a] = core::key_midpoint(ranges[b].lo, ranges[b].hi);
        } else {
          probes[a] = (lo_it + (hi_it - lo_it) / 2)->key;
        }
      }
    }
    if (!probes.empty()) comm.broadcast(probes.data(), probes.size(), 0);
    stats.probes_total += probes.size();

    // Histogram against the probes, reduce, validate — as in Alg. 2/3.
    hist.clear();
    for (usize a = 0; a < active.size(); ++a) {
      const T probe_key = Traits::from_uint(probes[a]);
      hist.push_back(core::count_below(sorted, probe_key, identity));
      hist.push_back(core::count_below_equal(sorted, probe_key, identity));
    }
    comm.charge_binary_search(local.size(), 2 * active.size());
    ghist.assign(hist.size(), 0);
    comm.allreduce(hist.data(), ghist.data(), hist.size(),
                   [](u64 a, u64 b) { return a + b; });

    std::vector<usize> still_active;
    double round_err = 0.0;  // max relative boundary error, as multiselect
    for (usize a = 0; a < active.size(); ++a) {
      const usize b = active[a];
      Range& r = ranges[b];
      const usize L = ghist[2 * a];
      const usize U = ghist[2 * a + 1];
      const usize K = targets[b];
      if (L < K + window && K <= U + window) {
        r.resolved = true;
        result.splitter[b] = probes[a];
        result.local_lb[b] = hist[2 * a];
        result.local_ub[b] = hist[2 * a + 1];
        result.global_lb[b] = L;
        result.global_ub[b] = U;
        result.boundary[b] = std::clamp(K, L, U);
      } else if (L >= K + window) {
        round_err = std::max(round_err, static_cast<double>(L - K) /
                                            static_cast<double>(N));
        r.hi = probes[a];
        still_active.push_back(b);
      } else {
        round_err = std::max(round_err, static_cast<double>(K - U) /
                                            static_cast<double>(N));
        r.lo = probes[a];
        still_active.push_back(b);
      }
    }
    comm.metrics().append(obs::Series::HistogramConvergence, round_err);
    active.swap(still_active);
  }
  comm.metrics().add(obs::Counter::HistogramIterations, stats.rounds);
  comm.metrics().add(obs::Counter::SplitterProbes, stats.probes_total);

  core::detail::make_boundaries_monotone(
      result, std::span<const usize>(targets));

  // Exchange and merge exactly as hds does — the comparison isolates the
  // splitter-determination strategies.
  auto ex = core::exchange(comm, sorted, result);
  core::merge_chunks(comm, ex.data, std::span<const usize>(ex.recv_counts),
                     cfg.merge, identity);
  local = std::move(ex.data);
  stats.elements_after = local.size();
  return stats;
}

}  // namespace hds::baselines
