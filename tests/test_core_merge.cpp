// Tests for the local k-way merge strategies (Sec. V-C): tournament and
// re-sort, against std::merge / std::sort oracles.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/merge.h"
#include "runtime/team.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

[[maybe_unused]] auto identity = [](const auto& v) { return v; };

/// Build `k` sorted chunks with the given sizes; returns (data, counts).
std::pair<std::vector<u32>, std::vector<usize>> make_chunks(
    std::vector<usize> sizes, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> data;
  for (usize sz : sizes) {
    std::vector<u32> chunk(sz);
    for (auto& v : chunk) v = static_cast<u32>(rng() % 100000);
    std::sort(chunk.begin(), chunk.end());
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  return {std::move(data), std::move(sizes)};
}

void check_strategy(MergeStrategy strategy, std::vector<usize> sizes,
                    u64 seed) {
  auto [data, counts] = make_chunks(std::move(sizes), seed);
  std::vector<u32> expected = data;
  std::sort(expected.begin(), expected.end());

  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), strategy, identity);
  });
  EXPECT_EQ(data, expected);
}

class MergeStrategyTest : public ::testing::TestWithParam<MergeStrategy> {};

TEST_P(MergeStrategyTest, TwoEqualChunks) {
  check_strategy(GetParam(), {100, 100}, 1);
}

TEST_P(MergeStrategyTest, ManySmallChunks) {
  check_strategy(GetParam(), std::vector<usize>(33, 17), 2);
}

TEST_P(MergeStrategyTest, SkewedChunkSizes) {
  check_strategy(GetParam(), {1, 1000, 3, 500, 1}, 3);
}

TEST_P(MergeStrategyTest, WithEmptyChunks) {
  check_strategy(GetParam(), {0, 50, 0, 0, 75, 0}, 4);
}

TEST_P(MergeStrategyTest, SingleChunkNoop) {
  check_strategy(GetParam(), {250}, 5);
}

TEST_P(MergeStrategyTest, AllChunksEmpty) {
  check_strategy(GetParam(), {0, 0, 0}, 6);
}

TEST_P(MergeStrategyTest, PowerOfTwoAndOddCounts) {
  check_strategy(GetParam(), {64, 64, 64, 64, 64, 64, 64}, 7);
  check_strategy(GetParam(), {10, 20, 30}, 8);
}

TEST_P(MergeStrategyTest, DuplicateHeavy) {
  Xoshiro256 rng(9);
  std::vector<u32> data;
  std::vector<usize> counts;
  for (int c = 0; c < 6; ++c) {
    std::vector<u32> chunk(200);
    for (auto& v : chunk) v = static_cast<u32>(rng() % 5);
    std::sort(chunk.begin(), chunk.end());
    data.insert(data.end(), chunk.begin(), chunk.end());
    counts.push_back(chunk.size());
  }
  std::vector<u32> expected = data;
  std::sort(expected.begin(), expected.end());
  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), GetParam(),
                 identity);
  });
  EXPECT_EQ(data, expected);
}

TEST_P(MergeStrategyTest, TiesKeepRunOrder) {
  // Records tagged with their position in the concatenation, keys drawn
  // from a 5-value alphabet so every key is tied across many runs. The
  // tournament must emit equal keys in run order, i.e. exactly
  // std::stable_sort of the concatenation; the re-sort strategy promises
  // key order only.
  struct Rec {
    u32 key;
    u32 origin;
  };
  auto by_key = [](const Rec& a, const Rec& b) { return a.key < b.key; };
  Xoshiro256 rng(11);
  std::vector<Rec> data;
  std::vector<usize> counts;
  for (usize len : {40, 0, 7, 63, 1, 25}) {
    std::vector<u32> keys(len);
    for (auto& k : keys) k = static_cast<u32>(rng() % 5);
    std::sort(keys.begin(), keys.end());
    for (u32 k : keys) data.push_back({k, static_cast<u32>(data.size())});
    counts.push_back(len);
  }
  std::vector<Rec> expected = data;
  std::stable_sort(expected.begin(), expected.end(), by_key);
  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), GetParam(),
                 [](const Rec& r) { return r.key; });
  });
  ASSERT_EQ(data.size(), expected.size());
  for (usize i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].key, expected[i].key) << "position " << i;
    if (GetParam() != MergeStrategy::Sort) {
      EXPECT_EQ(data[i].origin, expected[i].origin) << "position " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MergeStrategyTest,
                         ::testing::Values(MergeStrategy::Sort,
                                           MergeStrategy::Tournament),
                         [](const auto& pinfo) {
                           return pinfo.param == MergeStrategy::Sort
                                      ? "Sort"
                                      : "Tournament";
                         });

TEST(MergeCosts, TournamentChargedByLogK) {
  // The simulated charge for a tournament merge grows with the chunk count,
  // while a re-sort is charged by n log n regardless of k.
  Team team({.nranks = 1});
  double t_few = 0.0, t_many = 0.0;
  team.run([&](Comm& c) {
    auto [d1, c1] = make_chunks(std::vector<usize>(2, 4096), 1);
    const double t0 = c.clock().now();
    merge_chunks(c, d1, std::span<const usize>(c1),
                 MergeStrategy::Tournament, identity);
    t_few = c.clock().now() - t0;
    auto [d2, c2] = make_chunks(std::vector<usize>(64, 128), 2);
    const double t1 = c.clock().now();
    merge_chunks(c, d2, std::span<const usize>(c2),
                 MergeStrategy::Tournament, identity);
    t_many = c.clock().now() - t1;
  });
  EXPECT_GT(t_many, t_few);  // same n, more chunks -> deeper tournament
}

}  // namespace
}  // namespace hds::core
