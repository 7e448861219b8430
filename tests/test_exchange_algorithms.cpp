// Tests for the point-to-point exchange schedules of superstep 3: the k-ary
// swap schedule at its two extremes — k = 2, the store-and-forward
// hypercube (Sec. VI-E1's log2(P) rounds for small N/P), and k >= P, the
// direct pairwise exchange the 1-factor rounds used to schedule. Each suite
// checks the full sort contract through the schedule, with and without
// merge overlap.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/histogram_sort.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

/// Full sort through a given config; verifies invariants and returns sizes.
void check_sort(int P, const SortConfig& cfg, workload::GenConfig gen,
                usize n_rank) {
  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> all;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, n_rank);
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());

  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    EXPECT_TRUE(is_globally_sorted(
        c, std::span<const u64>(local.data(), local.size()),
        [](u64 v) { return v; }));
    out[c.rank()] = std::move(local);
  });
  std::vector<u64> merged;
  for (int r = 0; r < P; ++r) {
    merged.insert(merged.end(), out[r].begin(), out[r].end());
    if (cfg.epsilon == 0.0) {
      EXPECT_EQ(out[r].size(), shards[r].size());
    }
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

/// The k = 2 k-ary schedule: the store-and-forward hypercube of
/// Sec. VI-E1, log2(P) rounds of one partner each.
SortConfig hypercube() {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = 2;
  return cfg;
}

/// The k >= P k-ary schedule: one round in which every rank exchanges
/// directly with each of its P - 1 partners. The OneFactorExchange suite
/// runs it: the 1-factor exchange spread the same pairwise transfers over
/// P - 1 matched rounds, and KAry now covers that engine.
SortConfig direct(int P, bool overlap_merge = false) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = P;
  cfg.overlap_merge = overlap_merge;
  return cfg;
}

TEST(OneFactorExchange, SortsEvenP) { check_sort(8, direct(8), {}, 700); }

TEST(OneFactorExchange, SortsOddP) { check_sort(7, direct(7), {}, 500); }

TEST(OneFactorExchange, OverlapMergeProducesSameResult) {
  check_sort(8, direct(8, true), {}, 900);
  check_sort(5, direct(5, true), {}, 400);
}

TEST(OneFactorExchange, OverlapWithDuplicatesAndSkew) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Zipf;
  check_sort(6, direct(6, true), gen, 800);
}

TEST(OneFactorExchange, SparseInput) {
  workload::GenConfig gen;
  gen.sparsity = 0.4;
  gen.seed = 9;
  check_sort(10, direct(10), gen, 300);
}

TEST(OneFactorExchange, TwoRanks) { check_sort(2, direct(2, true), {}, 1000); }

TEST(OneFactorExchange, EpsilonBalanced) {
  SortConfig cfg = direct(8);
  cfg.epsilon = 0.1;
  check_sort(8, cfg, {}, 1500);
}

TEST(OneFactorExchange, OverlapSkipsSeparateMergePhase) {
  // With overlap the final data is one sorted run, so merge_chunks is a
  // no-op; the Merge phase time comes from the arrival merge instead.
  const int P = 4;
  workload::GenConfig gen;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, 2000);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, direct(P, true));
  });
  EXPECT_GT(team.stats().phase_seconds(net::Phase::Merge), 0.0);
  EXPECT_GT(team.stats().phase_seconds(net::Phase::Exchange), 0.0);
}

TEST(HypercubeExchange, SortsPowerOfTwo) {
  check_sort(8, hypercube(), {}, 700);
  check_sort(16, hypercube(), {}, 300);
  check_sort(2, hypercube(), {}, 500);
}

TEST(HypercubeExchange, DuplicatesAndSkew) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Staircase;
  check_sort(8, hypercube(), gen, 600);
  gen.dist = workload::Dist::AllEqual;
  check_sort(4, hypercube(), gen, 400);
}

TEST(HypercubeExchange, SparseInput) {
  workload::GenConfig gen;
  gen.sparsity = 0.5;
  gen.seed = 77;
  check_sort(8, hypercube(), gen, 250);
}

TEST(HypercubeExchange, CheaperLatencyForTinyPartitions) {
  // The Sec. VI-E1 trade: for very small N/P the log2(P)-round
  // store-and-forward beats the single ALL-TO-ALLV, whose latency grows
  // with the P - 1 messages every rank sends.
  auto time_with = [&](const SortConfig& cfg) {
    runtime::TeamConfig tcfg;
    tcfg.nranks = 32;
    tcfg.machine = net::MachineModel::supermuc_phase2(8, 4);
    Team team(tcfg);
    workload::GenConfig gen;
    std::vector<std::vector<u64>> shards(32);
    for (int r = 0; r < 32; ++r)
      shards[r] = workload::generate_u64(gen, r, 32, 64);  // tiny N/P
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      sort(c, local, cfg);
    });
    return team.stats().phase_seconds(net::Phase::Exchange);
  };
  EXPECT_LT(time_with(hypercube()), time_with(SortConfig{}));
}

}  // namespace
}  // namespace hds::core
