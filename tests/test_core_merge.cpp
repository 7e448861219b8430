// Tests for the local k-way merge strategies (Sec. V-C): tournament,
// re-sort and Auto's per-rank choice between them, against std::merge /
// std::sort oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "core/histogram_sort.h"
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

/// Records tagged with their position in the concatenation, keys drawn
/// from a 5-value alphabet so every key is tied across many runs, merged by
/// `strategy`. The k-way kernels must emit equal keys in run order, i.e.
/// exactly std::stable_sort of the concatenation; the re-sort strategy
/// promises key order only.
template <class Rec>
void check_ties_keep_run_order(MergeStrategy strategy,
                               std::vector<usize> lengths) {
  auto by_key = [](const Rec& a, const Rec& b) { return a.key < b.key; };
  Xoshiro256 rng(11);
  std::vector<Rec> data;
  std::vector<usize> counts;
  for (usize len : lengths) {
    std::vector<u32> keys(len);
    for (auto& k : keys) k = static_cast<u32>(rng() % 5);
    std::sort(keys.begin(), keys.end());
    for (u32 k : keys) {
      Rec r{};
      r.key = k;
      r.origin = static_cast<u32>(data.size());
      data.push_back(r);
    }
    counts.push_back(len);
  }
  std::vector<Rec> expected = data;
  std::stable_sort(expected.begin(), expected.end(), by_key);
  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), strategy,
                 [](const Rec& r) { return r.key; });
  });
  ASSERT_EQ(data.size(), expected.size());
  for (usize i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].key, expected[i].key) << "position " << i;
    if (strategy != MergeStrategy::Sort) {
      EXPECT_EQ(data[i].origin, expected[i].origin) << "position " << i;
    }
  }
}

TEST_P(MergeStrategyTest, TiesKeepRunOrder) {
  // An 8-byte record takes the pairwise merge-path kernel, a 64-byte one
  // the loser tree (kMergePathMaxBytes); the longer runs cut the pairwise
  // kernel's merges into several chains, whose co-ranks fall inside runs of
  // ties. Auto picks the k-way merge here: five runs merge far cheaper than
  // an introsort.
  struct Rec {
    u32 key;
    u32 origin;
  };
  struct Rec64 {
    u32 key;
    u32 origin;
    u64 payload[7];
  };
  static_assert(sizeof(Rec) <= kMergePathMaxBytes);
  static_assert(sizeof(Rec64) == 64 && sizeof(Rec64) > kMergePathMaxBytes);
  for (const std::vector<usize>& lengths :
       {std::vector<usize>{40, 0, 7, 63, 1, 25},
        std::vector<usize>{400, 0, 70, 630, 1, 250}}) {
    SCOPED_TRACE(::testing::Message() << "runs of " << lengths[0] << ", "
                                      << lengths[3] << ", ...");
    check_ties_keep_run_order<Rec>(GetParam(), lengths);
    check_ties_keep_run_order<Rec64>(GetParam(), lengths);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MergeStrategyTest,
                         ::testing::Values(MergeStrategy::Sort,
                                           MergeStrategy::Tournament,
                                           MergeStrategy::Auto),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case MergeStrategy::Sort: return "Sort";
                             case MergeStrategy::Tournament:
                               return "Tournament";
                             case MergeStrategy::Auto: return "Auto";
                           }
                           return "Unknown";
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

/// 2^16 uniform u64 keys in [0, hi], cut into `k` sorted runs of equal
/// length (within one key where k does not divide 2^16).
std::pair<std::vector<u64>, std::vector<usize>> uniform_runs(usize k, u64 hi,
                                                             u64 seed) {
  constexpr usize kN = usize{1} << 16;
  Xoshiro256 rng(seed);
  std::vector<u64> data(kN);
  for (auto& v : data)
    v = hi == std::numeric_limits<u64>::max() ? rng() : rng() % (hi + 1);
  std::vector<usize> counts(k);
  for (usize i = 0; i < k; ++i) {
    const usize lo = kN * i / k;
    const usize end = kN * (i + 1) / k;
    counts[i] = end - lo;
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(lo),
              data.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return {std::move(data), std::move(counts)};
}

struct MergeRun {
  std::vector<u64> out;
  double merge_s = 0.0;
  u64 kway = 0;
};

MergeRun run_merge(MergeStrategy strategy, std::vector<u64> data,
                   const std::vector<usize>& counts,
                   std::vector<u64> spare = {}) {
  Team team({.nranks = 1});
  team.run([&](Comm& c) {
    merge_chunks(c, data, std::span<const usize>(counts), strategy,
                 IdentityKey{}, std::move(spare));
  });
  return {std::move(data), team.stats().phase_seconds(net::Phase::Merge),
          team.metrics(0).value(obs::Counter::MergeKWay)};
}

TEST(MergeAuto, PicksTheCheaperKernel) {
  // Model crossovers on supermuc constants: a 30-bit span re-sorts in 4
  // radix passes (5.15 ns/key) against 0.9 log2(k) ns/key for the k-way
  // merge, so k-way wins up to 32 runs; a full 64-bit span takes 8 passes
  // and k-way wins up to 128 runs (above 64 runs the cache term applies).
  for (const auto& [hi, last_kway] :
       {std::pair<u64, usize>{1000000000, 32},
        std::pair<u64, usize>{std::numeric_limits<u64>::max(), 128}}) {
    for (usize k : {2, 4, 16, 32, 64, 128, 256}) {
      SCOPED_TRACE(::testing::Message() << "hi=" << hi << " k=" << k);
      const auto [data, counts] = uniform_runs(k, hi, 100 + k);
      const MergeRun resort = run_merge(MergeStrategy::Sort, data, counts);
      const MergeRun tour = run_merge(MergeStrategy::Tournament, data, counts);
      const MergeRun autom = run_merge(MergeStrategy::Auto, data, counts);
      EXPECT_EQ(autom.merge_s, std::min(resort.merge_s, tour.merge_s));
      EXPECT_EQ(autom.kway, k <= last_kway ? 1u : 0u);
      EXPECT_EQ(resort.kway, 0u);
      EXPECT_EQ(tour.kway, 1u);
      EXPECT_EQ(autom.out, resort.out);
      EXPECT_EQ(autom.out, tour.out);
    }
  }
}

TEST(MergeAuto, AnySpareCapacity) {
  // The donated buffer only decides where the k-way kernel writes: spares
  // too small to hold the output (dropped for a new buffer), exactly large
  // enough, and larger (shrunk in place), each holding stale keys, must all
  // give the same bytes, and a spare that can hold the output must hold the
  // result, whichever buffer the pairwise kernel's last level wrote (odd
  // and even level counts). The re-sort drops the spare.
  for (usize k : {2, 3, 4, 5, 8, 16}) {
    const auto [data, counts] = uniform_runs(k, 1000000000, 7);
    const usize n = data.size();
    auto stale = [](usize size, usize capacity) {
      std::vector<u64> v;
      v.reserve(capacity);
      v.assign(size, 0xdeadbeefULL);
      return v;
    };
    for (MergeStrategy m : {MergeStrategy::Auto, MergeStrategy::Tournament,
                            MergeStrategy::Sort}) {
      const MergeRun ref = run_merge(m, data, counts);
      EXPECT_EQ(ref.kway, m == MergeStrategy::Sort ? 0u : 1u);
      for (const auto& [size, capacity] :
           {std::pair<usize, usize>{0, 0}, {n / 4, n / 2}, {n / 2, n},
            {n, n}, {n + 100, n + 100}}) {
        SCOPED_TRACE(::testing::Message()
                     << merge_name(m) << " k=" << k << " spare size=" << size
                     << " capacity=" << capacity);
        std::vector<u64> spare = stale(size, capacity);
        const u64* const donated = spare.data();
        const bool holds = spare.capacity() >= n;
        const MergeRun got = run_merge(m, data, counts, std::move(spare));
        ASSERT_EQ(got.out.size(), n);
        EXPECT_EQ(
            std::memcmp(got.out.data(), ref.out.data(), n * sizeof(u64)), 0);
        EXPECT_EQ(got.merge_s, ref.merge_s);
        if (m != MergeStrategy::Sort && holds) {
          EXPECT_EQ(got.out.data(), donated);
        }
      }
    }
  }
}

TEST(MergeAuto, TiedRecordsMatchBothPins) {
  // Keys from a 5-value alphabet tagged with their origin, 2048 records per
  // rank so every re-sort takes the stable radix path: a re-sort of the
  // received concatenation then keeps ties in source order, exactly as the
  // k-way merge does, so Auto's per-rank choice never shows in the output.
  struct Rec {
    u32 key;
    u32 origin;
  };
  const auto key = [](const Rec& r) { return r.key; };
  constexpr usize kPerRank = 2048;
  for (int P : {4, 16}) {
    std::vector<std::vector<Rec>> shards(P);
    for (int r = 0; r < P; ++r) {
      Xoshiro256 rng(hash_mix(53, static_cast<u64>(r)));
      for (usize i = 0; i < kPerRank; ++i)
        shards[r].push_back({static_cast<u32>(rng() % 5),
                             static_cast<u32>(r * kPerRank + i)});
    }
    auto run = [&](MergeStrategy m) {
      std::vector<std::vector<Rec>> out(P);
      Team team({.nranks = P});
      team.run([&](Comm& c) {
        std::vector<Rec> local = shards[c.rank()];
        SortConfig cfg;
        cfg.merge = m;
        sort_by_key(c, local, key, cfg);
        out[c.rank()] = std::move(local);
      });
      std::vector<u8> bytes;
      for (const auto& o : out) {
        const auto* b = reinterpret_cast<const u8*>(o.data());
        bytes.insert(bytes.end(), b, b + o.size() * sizeof(Rec));
      }
      return bytes;
    };
    SCOPED_TRACE(::testing::Message() << "P=" << P);
    const std::vector<u8> autom = run(MergeStrategy::Auto);
    EXPECT_EQ(autom.size(), static_cast<usize>(P) * kPerRank * sizeof(Rec));
    EXPECT_EQ(autom, run(MergeStrategy::Tournament));
    EXPECT_EQ(autom, run(MergeStrategy::Sort));
  }
}

}  // namespace
}  // namespace hds::core
