// Equal-key stress coverage (satellite of the model-checker PR): the
// splitter bisection's worst case is a key space with no resolution at all
// — every key identical, or a two-symbol alphabet whose histogram cannot
// separate ranks. The sort must still terminate with the epsilon = 0
// perfect-partitioning contract (every rank keeps its element count) on
// every exchange algorithm, because duplicate handling rides the exchange
// schedule's tie-breaking (world-rank order), not the key values.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/histogram_sort.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

/// Sort `gen`-distributed keys at P = 16 under `cfg` and verify the full
/// output contract: globally sorted, multiset-preserving, perfectly
/// partitioned (epsilon = 0).
void check_equal_key_sort(const SortConfig& cfg, workload::GenConfig gen) {
  constexpr int P = 16;
  constexpr usize kPerRank = 256;
  std::vector<std::vector<u64>> shards(P);
  std::vector<u64> all;
  for (int r = 0; r < P; ++r) {
    shards[r] = workload::generate_u64(gen, r, P, kPerRank);
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
    EXPECT_EQ(out[r].size(), kPerRank) << "rank " << r;
    merged.insert(merged.end(), out[r].begin(), out[r].end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, all);
}

struct ExchangeCase {
  const char* name;
  ExchangeAlgorithm algo;
  int k;
};

const ExchangeCase kExchanges[] = {
    {"alltoallv", ExchangeAlgorithm::Alltoallv, 0},
    {"kary-k2", ExchangeAlgorithm::KAry, 2},
    {"kary-k4", ExchangeAlgorithm::KAry, 4},
    {"kary-k16", ExchangeAlgorithm::KAry, 16},
};

TEST(EqualKeys, AllEqualAcrossExchangeAlgorithms) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::AllEqual;
  for (const ExchangeCase& ex : kExchanges) {
    SCOPED_TRACE(ex.name);
    SortConfig cfg;
    cfg.exchange = ex.algo;
    if (ex.k > 0) cfg.exchange_k = ex.k;
    check_equal_key_sort(cfg, gen);
  }
}

TEST(EqualKeys, TwoDistinctValuesAcrossExchangeAlgorithms) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::FewDistinct;
  gen.alphabet = 2;
  for (const ExchangeCase& ex : kExchanges) {
    SCOPED_TRACE(ex.name);
    SortConfig cfg;
    cfg.exchange = ex.algo;
    if (ex.k > 0) cfg.exchange_k = ex.k;
    check_equal_key_sort(cfg, gen);
  }
}

/// Per-rank sorted output of core::sort under `cfg` — for cross-config
/// identity checks.
std::vector<std::vector<u64>> sorted_output(const SortConfig& cfg,
                                            workload::GenConfig gen) {
  constexpr int P = 16;
  constexpr usize kPerRank = 256;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, kPerRank);
  std::vector<std::vector<u64>> out(P);
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    sort(c, local, cfg);
    out[c.rank()] = std::move(local);
  });
  return out;
}

TEST(EqualKeys, HistogramModesProduceByteIdenticalOutput) {
  // At eps = 0 the splitter per boundary is unique (the key whose tie class
  // contains the target rank), so the hybrid histogram mode must produce
  // exactly the per-rank output of the dense mode — including on tie-heavy
  // inputs where the sampled rounds stall and fall back.
  struct DistCase {
    const char* name;
    workload::Dist dist;
    u64 alphabet;
  };
  const DistCase dists[] = {
      {"allequal", workload::Dist::AllEqual, 16},
      {"fewdistinct-2", workload::Dist::FewDistinct, 2},
      {"fewdistinct-16", workload::Dist::FewDistinct, 16},
      {"zipf", workload::Dist::Zipf, 16},
  };
  for (const DistCase& d : dists) {
    SCOPED_TRACE(d.name);
    workload::GenConfig gen;
    gen.dist = d.dist;
    gen.alphabet = d.alphabet;
    SortConfig dense;  // HistogramMode::Dense is the default
    const auto base = sorted_output(dense, gen);
    SortConfig cfg;
    cfg.histogram = HistogramMode::Hybrid;
    check_equal_key_sort(cfg, gen);  // full output contract
    EXPECT_EQ(sorted_output(cfg, gen), base);
  }
}

TEST(EqualKeys, AllEqualWithOverlapMergeAndPackedPath) {
  workload::GenConfig gen;
  gen.dist = workload::Dist::AllEqual;
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = 4;
  cfg.overlap_merge = true;
  check_equal_key_sort(cfg, gen);
  // The tie-split send counts keep the perfect partition through the
  // collective itself too: each rank receives exactly its own keys back,
  // packed in source-rank order.
  constexpr int P = 16;
  constexpr usize kPerRank = 256;
  Team team({.nranks = P});
  team.run([&](Comm& c) {
    const auto local = workload::generate_u64(gen, c.rank(), P, kPerRank);
    std::vector<usize> targets(P - 1);
    for (usize b = 0; b < targets.size(); ++b)
      targets[b] = (b + 1) * kPerRank;
    const auto sp =
        find_splitters(c, std::span<const u64>(local), IdentityKey{},
                       std::span<const usize>(targets));
    const std::vector<usize> send = compute_send_counts(c, local.size(), sp);
    std::vector<u64> got;
    std::vector<usize> recv_counts;
    c.alltoallv_into(std::span<const u64>(local),
                     std::span<const usize>(send), got, recv_counts);
    EXPECT_EQ(got, local);
    std::vector<usize> only_self(P, 0);
    only_self[static_cast<usize>(c.rank())] = kPerRank;
    EXPECT_EQ(recv_counts, only_self);
  });
}

}  // namespace
}  // namespace hds::core
