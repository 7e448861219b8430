// Randomized property tests: many deterministic-seed trials with randomly
// drawn (P, sizes, distribution, epsilon, merge, histogram, exchange)
// configurations, checking the full output contract each time; plus
// cost-model invariants the simulated-time experiments depend on.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/histogram_sort.h"
#include "net/cost_model.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds {
namespace {

using core::SortConfig;
using runtime::Comm;
using runtime::Team;

/// One fully randomized sort trial; all randomness derives from `seed`.
void random_trial(u64 seed) {
  Xoshiro256 rng(seed);
  const int P = 1 + static_cast<int>(rng() % 12);
  const auto& dists = workload::all_dists();
  workload::GenConfig gen;
  gen.dist = dists[rng() % dists.size()];
  gen.seed = rng();
  gen.sparsity = (rng() % 4 == 0) ? 0.3 : 0.0;

  SortConfig cfg;
  const double eps_choices[] = {0.0, 0.0, 0.05, 0.2};
  cfg.epsilon = eps_choices[rng() % 4];
  const core::MergeStrategy merges[] = {core::MergeStrategy::Sort,
                                        core::MergeStrategy::Tournament,
                                        core::MergeStrategy::Auto};
  cfg.merge = merges[rng() % 3];
  cfg.histogram = (rng() % 2 == 0) ? core::HistogramMode::Dense
                                   : core::HistogramMode::Hybrid;
  if (rng() % 2 == 0) {
    cfg.exchange = core::ExchangeAlgorithm::KAry;
    const int ks[] = {2, 3, P};
    cfg.exchange_k = ks[rng() % 3];
    cfg.overlap_merge = rng() % 2 == 0;
  }

  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> all;
  std::vector<usize> caps;
  for (int r = 0; r < P; ++r) {
    const usize n = rng() % 800;
    shards[r] = workload::generate_u64(gen, r, P, n);
    caps.push_back(shards[r].size());
    all.insert(all.end(), shards[r].begin(), shards[r].end());
  }
  std::sort(all.begin(), all.end());

  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    core::sort(c, local, cfg);
    out[c.rank()] = std::move(local);
  });

  std::vector<u64> merged;
  for (int r = 0; r < P; ++r) {
    ASSERT_TRUE(std::is_sorted(out[r].begin(), out[r].end()))
        << "seed=" << seed << " rank=" << r;
    if (r > 0 && !out[r].empty() && !out[r - 1].empty()) {
      ASSERT_LE(out[r - 1].back(), out[r].front()) << "seed=" << seed;
    }
    if (cfg.epsilon == 0.0) {
      ASSERT_EQ(out[r].size(), caps[r]) << "seed=" << seed << " rank=" << r;
    }
    merged.insert(merged.end(), out[r].begin(), out[r].end());
  }
  std::sort(merged.begin(), merged.end());
  ASSERT_EQ(merged, all) << "seed=" << seed;
}

class RandomSortTrial : public ::testing::TestWithParam<u64> {};

TEST_P(RandomSortTrial, FullContractHolds) { random_trial(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSortTrial,
                         ::testing::Range<u64>(1000, 1030));

// ---------------------------------------------------------------------------
// Cost model invariants the scaling experiments rest on.
// ---------------------------------------------------------------------------

TEST(CostModelProperties, AllCostsNonNegativeAndFinite) {
  const auto m = net::MachineModel::supermuc_phase2(8, 16);
  net::CostModel cm(m, 64.0);
  for (int P : {1, 2, 16, 128}) {
    for (usize bytes : {usize{0}, usize{8}, usize{1} << 20}) {
      for (auto t : {net::Traffic::Control, net::Traffic::Data}) {
        for (double c :
             {cm.barrier(P, std::max(1, P / 16)),
              cm.broadcast(P, std::max(1, P / 16), bytes, t),
              cm.allreduce(P, std::max(1, P / 16), bytes, t),
              cm.allgather(P, std::max(1, P / 16), bytes, t),
              cm.alltoall(P, std::max(1, P / 16), bytes, t)}) {
          EXPECT_GE(c, 0.0);
          EXPECT_TRUE(std::isfinite(c));
        }
      }
    }
  }
}

TEST(CostModelProperties, AlltoallvMonotoneInVolume) {
  const auto m = net::MachineModel::supermuc_phase2(4, 4);
  net::CostModel cm(m);
  std::vector<rank_t> members(16);
  for (int i = 0; i < 16; ++i) members[i] = i;
  auto cost_for = [&](usize per_pair) {
    std::vector<usize> matrix(16 * 16, per_pair);
    return cm.alltoallv(members, matrix, net::Traffic::Data);
  };
  EXPECT_LT(cost_for(100), cost_for(10000));
  EXPECT_LT(cost_for(10000), cost_for(1000000));
}

TEST(CostModelProperties, AlltoallvIntraNodeCheaperThanInter) {
  // Same byte matrix, one node vs four nodes.
  auto cost_with_nodes = [&](int nodes) {
    const auto m = net::MachineModel::supermuc_phase2(nodes, 16 / nodes);
    net::CostModel cm(m);
    std::vector<rank_t> members(16);
    for (int i = 0; i < 16; ++i) members[i] = i;
    std::vector<usize> matrix(16 * 16, 1 << 16);
    return cm.alltoallv(members, matrix, net::Traffic::Data);
  };
  EXPECT_LT(cost_with_nodes(1), cost_with_nodes(4));
}

TEST(CostModelProperties, KwayMergeCachePenaltyKicksIn) {
  net::CostModel cm{net::MachineModel{}, 1.0};
  const usize n = 1 << 20;
  const double few = cm.kway_heap_merge(n, 16);
  const double many = cm.kway_heap_merge(n, 1024);
  // log2(1024)/log2(16) = 2.5x without penalty; the cache term adds more.
  EXPECT_GT(many, few * 2.6);
}

TEST(CostModelProperties, ScaledBytesOnlyAffectsData) {
  net::CostModel cm{net::MachineModel{}, 32.0};
  EXPECT_DOUBLE_EQ(cm.scaled_bytes(100, net::Traffic::Control), 100.0);
  EXPECT_DOUBLE_EQ(cm.scaled_bytes(100, net::Traffic::Data), 3200.0);
}

TEST(CostModelProperties, ControlChargesIgnoreDataScale) {
  // Two teams differing only in data_scale must charge control-plane
  // computations identically.
  auto control_time = [&](double scale) {
    runtime::TeamConfig cfg;
    cfg.nranks = 2;
    cfg.data_scale = scale;
    Team team(cfg);
    team.run([&](Comm& c) { c.charge_control_sort(10000); });
    return team.stats().makespan_s;
  };
  EXPECT_DOUBLE_EQ(control_time(1.0), control_time(512.0));
}

TEST(CostModelProperties, DataChargesScale) {
  auto data_time = [&](double scale) {
    runtime::TeamConfig cfg;
    cfg.nranks = 2;
    cfg.data_scale = scale;
    Team team(cfg);
    team.run([&](Comm& c) { c.charge_sort(10000); });
    return team.stats().makespan_s;
  };
  EXPECT_GT(data_time(512.0), data_time(1.0) * 256.0);
}

TEST(CostModelProperties, CollectiveOverheadGrowsWithNodesNotRanks) {
  // The histogram bottleneck mechanism: allreduce latency grows with the
  // number of nodes spanned, not merely the rank count.
  const auto m16 = net::MachineModel::supermuc_phase2(1, 16);
  const auto m4x4 = net::MachineModel::supermuc_phase2(4, 4);
  net::CostModel a(m16), b(m4x4);
  EXPECT_LT(a.allreduce(16, 1, 1024, net::Traffic::Control),
            b.allreduce(16, 4, 1024, net::Traffic::Control));
}

}  // namespace
}  // namespace hds
