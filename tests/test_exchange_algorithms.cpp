// Tests for the k-ary exchange schedule of superstep 3 at its two
// extremes — k = 2, the store-and-forward hypercube (Sec. VI-E1's log2(P)
// rounds for small N/P), and k >= P, one round of direct pairwise
// transfers, which is the default exchange itself (KAryOneRound in
// test_records.cpp checks the two bit-identical). Each suite checks the
// full sort contract through the schedule.
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
  cfg.exchange_k = 2;
  return cfg;
}

/// The k >= P k-ary schedule: one round in which every rank exchanges
/// directly with each of its P - 1 partners.
SortConfig direct(int P) {
  SortConfig cfg;
  cfg.exchange_k = P;
  return cfg;
}

TEST(KAryDirectExchange, SortsEvenP) { check_sort(8, direct(8), {}, 700); }

TEST(KAryDirectExchange, SortsOddP) { check_sort(7, direct(7), {}, 500); }

TEST(KAryDirectExchange, SparseInput) {
  workload::GenConfig gen;
  gen.sparsity = 0.4;
  gen.seed = 9;
  check_sort(10, direct(10), gen, 300);
}

TEST(KAryDirectExchange, TwoRanks) { check_sort(2, direct(2), {}, 1000); }

TEST(KAryDirectExchange, EpsilonBalanced) {
  SortConfig cfg = direct(8);
  cfg.epsilon = 0.1;
  check_sort(8, cfg, {}, 1500);
}

TEST(KAryRadix2Exchange, SortsPowerOfTwo) {
  check_sort(8, hypercube(), {}, 700);
  check_sort(16, hypercube(), {}, 300);
  check_sort(2, hypercube(), {}, 500);
}

TEST(KAryRadix2Exchange, DuplicatesAndSkew) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::Staircase;
  check_sort(8, hypercube(), gen, 600);
  gen.dist = workload::Dist::AllEqual;
  check_sort(4, hypercube(), gen, 400);
}

TEST(KAryRadix2Exchange, SparseInput) {
  workload::GenConfig gen;
  gen.sparsity = 0.5;
  gen.seed = 77;
  check_sort(8, hypercube(), gen, 250);
}

TEST(KAryRadix2Exchange, CheaperLatencyForTinyPartitions) {
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
