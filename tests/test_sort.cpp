// Integration tests for the full distributed histogram sort: output
// invariants over a parameterized grid of (ranks, distribution, size,
// epsilon, merge strategy, key type), sparse inputs, payload sorting, and
// stats sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

/// Run the sort on generated shards and verify all output invariants.
/// Returns the per-rank output sizes.
template <class T>
std::vector<usize> run_and_verify(int P, std::vector<std::vector<T>> shards,
                                  const SortConfig& cfg = {},
                                  SortStats* stats_out = nullptr) {
  std::vector<T> all;
  std::vector<usize> capacities;
  for (const auto& s : shards) {
    capacities.push_back(s.size());
    all.insert(all.end(), s.begin(), s.end());
  }
  std::sort(all.begin(), all.end());
  const usize N = all.size();

  std::vector<std::vector<T>> out(P);
  Team team({.nranks = P});
  SortStats stats;
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    const SortStats st = sort(c, local, cfg);
    EXPECT_TRUE(is_globally_sorted(
        c, std::span<const T>(local.data(), local.size()), identity));
    if (c.rank() == 0) stats = st;
    out[c.rank()] = std::move(local);
  });
  if (stats_out) *stats_out = stats;

  // Output is a sorted permutation of the input.
  std::vector<T> merged;
  for (const auto& o : out) {
    EXPECT_TRUE(std::is_sorted(o.begin(), o.end()));
    merged.insert(merged.end(), o.begin(), o.end());
  }
  EXPECT_EQ(merged, all) << "output is not the sorted input permutation";

  std::vector<usize> sizes;
  for (const auto& o : out) sizes.push_back(o.size());
  if (cfg.epsilon == 0.0) {
    EXPECT_EQ(sizes, capacities) << "perfect partitioning violated";
  } else if (N > 0) {
    const double cap = static_cast<double>(N) / P * (1.0 + cfg.epsilon);
    for (usize s : sizes) EXPECT_LE(static_cast<double>(s), cap + 1e-9);
  }
  return sizes;
}

// ---------------------------------------------------------------------------
// Parameterized sweep: (P, distribution) with u64 keys.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<int, workload::Dist>;

class SortSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SortSweep, SortsCorrectly) {
  const auto [P, dist] = GetParam();
  workload::GenConfig cfg;
  cfg.dist = dist;
  cfg.seed = 1234;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(cfg, r, P, 600);
  run_and_verify<u64>(P, std::move(shards));
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string d(workload::dist_name(std::get<1>(info.param)));
  std::replace(d.begin(), d.end(), '-', '_');
  return "P" + std::to_string(std::get<0>(info.param)) + "_" + d;
}

INSTANTIATE_TEST_SUITE_P(
    RanksByDistribution, SortSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8, 16),
                       ::testing::ValuesIn(workload::all_dists())),
    sweep_name);

// ---------------------------------------------------------------------------
// Epsilon sweep.
// ---------------------------------------------------------------------------

class EpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweep, BalanceWithinThreshold) {
  const double eps = GetParam();
  workload::GenConfig gen;
  gen.seed = 99;
  const int P = 8;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 2000);
  SortConfig cfg;
  cfg.epsilon = eps;
  SortStats stats;
  run_and_verify<u64>(P, std::move(shards), cfg, &stats);
  EXPECT_GT(stats.histogram_iterations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.5));

// ---------------------------------------------------------------------------
// Merge strategies on the full sort.
// ---------------------------------------------------------------------------

class SortMergeStrategy : public ::testing::TestWithParam<MergeStrategy> {};

TEST_P(SortMergeStrategy, AllStrategiesProduceSameResult) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Normal;
  const int P = 6;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 900);
  SortConfig cfg;
  cfg.merge = GetParam();
  run_and_verify<u64>(P, std::move(shards), cfg);
}

INSTANTIATE_TEST_SUITE_P(Strategies, SortMergeStrategy,
                         ::testing::Values(MergeStrategy::Sort,
                                           MergeStrategy::Tournament,
                                           MergeStrategy::Auto));

// ---------------------------------------------------------------------------
// Key types.
// ---------------------------------------------------------------------------

TEST(SortTypes, SignedIntegers) {
  Xoshiro256 rng(7);
  const int P = 5;
  std::vector<std::vector<i64>> shards(P);
  for (auto& s : shards)
    for (int i = 0; i < 700; ++i)
      s.push_back(static_cast<i64>(rng() % 2000) - 1000);
  run_and_verify<i64>(P, std::move(shards));
}

TEST(SortTypes, Doubles) {
  Xoshiro256 rng(8);
  const int P = 4;
  std::vector<std::vector<double>> shards(P);
  for (auto& s : shards)
    for (int i = 0; i < 800; ++i) s.push_back(rng.normal() * 1e6);
  run_and_verify<double>(P, std::move(shards));
}

TEST(SortTypes, Floats) {
  Xoshiro256 rng(9);
  const int P = 3;
  std::vector<std::vector<float>> shards(P);
  for (auto& s : shards)
    for (int i = 0; i < 500; ++i)
      s.push_back(static_cast<float>(rng.normal()));
  run_and_verify<float>(P, std::move(shards));
}

TEST(SortTypes, U32) {
  Xoshiro256 rng(10);
  const int P = 6;
  std::vector<std::vector<u32>> shards(P);
  for (auto& s : shards)
    for (int i = 0; i < 600; ++i) s.push_back(static_cast<u32>(rng()));
  run_and_verify<u32>(P, std::move(shards));
}

// ---------------------------------------------------------------------------
// Records with payload via sort_by_key.
// ---------------------------------------------------------------------------

struct Particle {
  u64 morton;
  double mass;
  int id;
};

TEST(SortByKey, RecordsTravelWithTheirKeys) {
  Xoshiro256 rng(11);
  const int P = 4;
  std::vector<std::vector<Particle>> shards(P);
  std::map<u64, double> mass_of;  // key -> mass oracle (keys made unique)
  u64 next_key = 0;
  for (auto& s : shards)
    for (int i = 0; i < 300; ++i) {
      const u64 k = (rng() % 100000) * 1000 + next_key++;
      const double m = rng.uniform01();
      s.push_back({k, m, static_cast<int>(next_key)});
      mass_of[k] = m;
    }

  std::vector<std::vector<Particle>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort_by_key(c, local, [](const Particle& p) { return p.morton; });
    out[c.rank()] = std::move(local);
  });

  u64 prev = 0;
  bool first = true;
  usize count = 0;
  for (const auto& o : out)
    for (const auto& p : o) {
      EXPECT_TRUE(first || p.morton >= prev);
      EXPECT_DOUBLE_EQ(mass_of.at(p.morton), p.mass)
          << "payload separated from key";
      prev = p.morton;
      first = false;
      ++count;
    }
  EXPECT_EQ(count, mass_of.size());
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

TEST(SortEdge, SingleRank) {
  Xoshiro256 rng(12);
  std::vector<std::vector<u64>> shards(1);
  for (int i = 0; i < 1000; ++i) shards[0].push_back(rng());
  run_and_verify<u64>(1, std::move(shards));
}

TEST(SortEdge, EmptyInput) {
  run_and_verify<u64>(4, std::vector<std::vector<u64>>(4));
}

TEST(SortEdge, OneElementTotal) {
  std::vector<std::vector<u64>> shards(4);
  shards[2] = {42};
  run_and_verify<u64>(4, std::move(shards));
}

TEST(SortEdge, FewerElementsThanRanks) {
  std::vector<std::vector<u64>> shards(8);
  shards[1] = {5};
  shards[6] = {3, 9};
  run_and_verify<u64>(8, std::move(shards));
}

TEST(SortEdge, SparseManyEmptyRanks) {
  workload::GenConfig gen;
  gen.sparsity = 0.5;
  gen.seed = 13;
  const int P = 12;
  std::vector<std::vector<u64>> shards(P);
  usize total = 0;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, 400);
    total += shards[r].size();
  }
  ASSERT_LT(total, usize(P) * 400);  // sparsity actually removed some ranks
  ASSERT_GT(total, usize{0});
  run_and_verify<u64>(P, std::move(shards));
}

TEST(SortEdge, AlreadySortedInputFastPath) {
  const int P = 4;
  std::vector<std::vector<u64>> shards(P);
  u64 v = 0;
  for (auto& s : shards)
    for (int i = 0; i < 500; ++i) s.push_back(v += 3);
  SortStats stats;
  run_and_verify<u64>(P, std::move(shards), {}, &stats);
  // Globally sorted input with equal capacities: nothing moves off-rank.
  EXPECT_EQ(stats.elements_sent_off_rank, 0u);
}

TEST(SortEdge, ReverseSortedMovesEverything) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::ReverseSorted;
  const int P = 4;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 500);
  SortStats stats;
  run_and_verify<u64>(P, std::move(shards), {}, &stats);
  // Rank 0 held the largest keys; almost all of its data must leave.
  EXPECT_GT(stats.elements_sent_off_rank, 350u);
}

TEST(SortStatsTest, IterationCountsMatchKeyWidth) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Uniform;
  gen.hi = 1'000'000'000;  // ~2^30
  const int P = 8;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 1000);
  // The key-width bound is Dense's (Sec. V-A); the default Auto search
  // may sample and finish in fewer rounds.
  SortConfig cfg;
  cfg.histogram = HistogramMode::Dense;
  SortStats stats;
  run_and_verify<u64>(P, std::move(shards), cfg, &stats);
  EXPECT_GE(stats.histogram_iterations, 15u);
  EXPECT_LE(stats.histogram_iterations, 34u);
  EXPECT_GT(stats.splitter_probes, stats.histogram_iterations);
}

TEST(SortStatsTest, PhaseBreakdownCoversRuntime) {
  workload::GenConfig gen;
  const int P = 4;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 3000);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local);
  });
  const auto& st = team.stats();
  EXPECT_GT(st.makespan_s, 0.0);
  EXPECT_GT(st.phase_seconds(net::Phase::LocalSort), 0.0);
  EXPECT_GT(st.phase_seconds(net::Phase::Histogram), 0.0);
  EXPECT_GT(st.phase_seconds(net::Phase::Exchange), 0.0);
  double frac = 0.0;
  for (usize p = 0; p < net::kPhaseCount; ++p)
    frac += st.phase_fraction(static_cast<net::Phase>(p));
  EXPECT_NEAR(frac, 1.0, 1e-9);
}

TEST(SortDeterminism, SameSeedSameResultAcrossRuns) {
  workload::GenConfig gen;
  gen.seed = 77;
  const int P = 5;
  auto run_once = [&] {
    std::vector<std::vector<u64>> shards(P);
    for (int r = 0; r < P; ++r)
      shards[r] = workload::generate_u64(gen, r, P, 800);
    Team team({.nranks = P});
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      sort(c, local);
    });
    return team.stats().makespan_s;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());  // simulated time is deterministic
}

}  // namespace
}  // namespace hds::core
