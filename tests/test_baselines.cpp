// Tests for the two baseline sorters the paper's evaluation compares
// against: HSS (Figs. 2/3) and the shared-memory merge sort (Fig. 4) —
// correctness against oracles plus the behavioural contrasts the paper
// draws (constraints, convergence volatility, timeouts, NUMA crossover).
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/hss_sort.h"
#include "baselines/parallel_merge_sort.h"
#include "core/histogram_sort.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::baselines {
namespace {

using runtime::Comm;
using runtime::Team;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

std::vector<std::vector<u64>> make_shards(int P, usize n,
                                          workload::GenConfig cfg = {}) {
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(cfg, r, P, n);
  return shards;
}

/// Verify: globally sorted permutation of the input; returns output sizes.
template <class Sorter>
std::vector<usize> run_baseline(int P, std::vector<std::vector<u64>> shards,
                                Sorter sorter) {
  std::vector<u64> all;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());

  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sorter(c, local);
    EXPECT_TRUE(core::is_globally_sorted(
        c, std::span<const u64>(local.data(), local.size()), identity));
    out[c.rank()] = std::move(local);
  });

  std::vector<u64> merged;
  std::vector<usize> sizes;
  for (const auto& o : out) {
    merged.insert(merged.end(), o.begin(), o.end());
    sizes.push_back(o.size());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
  return sizes;
}

// --- HSS --------------------------------------------------------------------

TEST(HssSort, SortsUniformPerfectPartition) {
  const auto sizes = run_baseline(8, make_shards(8, 700),
                                  [](Comm& c, std::vector<u64>& v) {
                                    hss_sort(c, v);
                                  });
  for (usize s : sizes) EXPECT_EQ(s, 700u);
}

TEST(HssSort, RejectsNonPowerOfTwoRanks) {
  Team team({.nranks = 6});
  EXPECT_THROW(team.run([&](Comm& c) {
                 std::vector<u64> v{1, 2, 3};
                 hss_sort(c, v);
               }),
               argument_error);
}

TEST(HssSort, EpsilonRelaxedConvergesFaster) {
  workload::GenConfig gen;
  const int P = 8;
  usize rounds_exact = 0, rounds_eps = 0;
  for (auto [eps, out] : {std::pair{0.0, &rounds_exact},
                          std::pair{0.2, &rounds_eps}}) {
    auto shards = make_shards(P, 1500, gen);
    Team team({.nranks = P});
    team.run([&, eps = eps, out = out](Comm& c) {
      auto local = shards[c.rank()];
      HssConfig cfg;
      cfg.epsilon = eps;
      const auto st = hss_sort(c, local, cfg);
      if (c.rank() == 0) *out = st.rounds;
    });
  }
  EXPECT_LE(rounds_eps, rounds_exact);
}

TEST(HssSort, RoundCountVariesAcrossSeeds) {
  // Sampling-driven volatility: different seeds, different convergence —
  // the wide confidence intervals of the paper's Charm++ measurements.
  workload::GenConfig gen;
  const int P = 8;
  std::vector<usize> rounds;
  for (u64 seed : {1, 2, 3, 4, 5, 6}) {
    auto shards = make_shards(P, 900, gen);
    Team team({.nranks = P});
    usize r0 = 0;
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      HssConfig cfg;
      cfg.seed = seed;
      const auto st = hss_sort(c, local, cfg);
      if (c.rank() == 0) r0 = st.rounds;
    });
    rounds.push_back(r0);
  }
  EXPECT_NE(*std::max_element(rounds.begin(), rounds.end()),
            *std::min_element(rounds.begin(), rounds.end()));
}

TEST(HssSort, TimesOutWhenCapped) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Normal;  // the distribution Charm++ failed on
  const int P = 4;
  auto shards = make_shards(P, 800, gen);
  Team team({.nranks = P});
  EXPECT_THROW(team.run([&](Comm& c) {
                 auto local = shards[c.rank()];
                 HssConfig cfg;
                 cfg.max_rounds = 1;  // absurd cap forces the timeout path
                 hss_sort(c, local, cfg);
               }),
               hss_timeout);
}

TEST(HssSort, CrossingSplittersStillExchange) {
  // Uneven ranks put targets 5 and 5 less than two epsilon windows apart;
  // per-boundary sampling then accepts boundary 1 at a smaller key than
  // boundary 0, which must not break the exchange's tie refinement.
  const std::vector<std::vector<u64>> shards = {
      {1, 2, 5, 5, 7}, {}, {12, 0, 10, 15}, {1, 13, 6, 6, 13, 8, 10}};
  const int P = 4;
  HssConfig cfg;
  cfg.epsilon = 0.9;
  cfg.seed = 4044;
  const auto sizes = run_baseline(P, shards, [&](Comm& c, std::vector<u64>& v) {
    hss_sort(c, v, cfg);
  });
  usize n = 0;
  for (const auto& s : shards) n += s.size();
  const usize window = static_cast<usize>(cfg.epsilon * static_cast<double>(n) /
                                          (2.0 * P));
  usize target = 0, prefix = 0;
  for (int r = 0; r + 1 < P; ++r) {
    target += shards[r].size();
    prefix += sizes[r];
    EXPECT_LE(prefix, target + window) << "boundary " << r;
    EXPECT_LE(target, prefix + window) << "boundary " << r;
  }
}

// --- shared-memory merge sort -----------------------------------------------

TEST(PMergeSort, SortsAndRedistributes) {
  const auto sizes = run_baseline(8, make_shards(8, 600),
                                  [](Comm& c, std::vector<u64>& v) {
                                    parallel_merge_sort(c, v);
                                  });
  for (usize s : sizes) EXPECT_EQ(s, 600u);
}

TEST(PMergeSort, NonPowerOfTwoThreads) {
  run_baseline(7, make_shards(7, 400), [](Comm& c, std::vector<u64>& v) {
    parallel_merge_sort(c, v);
  });
}

TEST(PMergeSort, CrossNumaChargesMore) {
  // Same data, 1 NUMA domain vs 4: the modelled merge tree pays cross-NUMA
  // bandwidth in the latter.
  auto run_with = [&](int numa_domains) {
    runtime::TeamConfig cfg;
    cfg.nranks = 8;
    cfg.machine = net::MachineModel::supermuc_node(8, numa_domains);
    Team team(cfg);
    auto shards = make_shards(8, 2000);
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      parallel_merge_sort(c, local);
    });
    return team.stats().makespan_s;
  };
  EXPECT_GT(run_with(4), run_with(1));
}

TEST(PMergeSort, HistogramSortWinsAcrossNuma) {
  // Fig. 4's crossover, in miniature: across 4 NUMA domains the one-shot
  // exchange beats the log(p)-pass merge tree.
  runtime::TeamConfig cfg;
  cfg.nranks = 16;
  cfg.machine = net::MachineModel::supermuc_node(16, 4);
  cfg.data_scale = 4096.0;  // model a multi-GB sort on a small sample
  auto shards = make_shards(16, 4096);

  Team t1(cfg);
  t1.run([&](Comm& c) {
    auto local = shards[c.rank()];
    parallel_merge_sort(c, local);
  });
  Team t2(cfg);
  t2.run([&](Comm& c) {
    auto local = shards[c.rank()];
    core::SortConfig scfg;
    scfg.merge = core::MergeStrategy::Tournament;  // move data once
    core::sort(c, local, scfg);
  });
  EXPECT_LT(t2.stats().makespan_s, t1.stats().makespan_s);
}

}  // namespace
}  // namespace hds::baselines
