// Tests for the k-ary interleaved exchange (PR 7, DESIGN.md sec. 13): the
// factorized swap schedule, the k-way in-place tournament tail merge, sort
// correctness across the k x P x kernel grid (byte-identical to the
// alltoallv exchange), degenerate layouts, hds::check coverage (clean run +
// elide mutation), and crash recovery through a k-ary exchange.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "check/race_detector.h"
#include "common/rng.h"
#include "core/exchange.h"
#include "core/histogram_sort.h"
#include "core/merge_inplace.h"
#include "runtime/fault.h"
#include "runtime/team.h"
#include "workload/distributions.h"

namespace hds::core {
namespace {

using runtime::Comm;
using runtime::Team;

// ---------------------------------------------------------------------------
// Schedule: kary_round_factors

TEST(KArySchedule, FactorsMultiplyToPWithEachFactorAtMostK) {
  for (int P = 1; P <= 40; ++P) {
    for (int k : {2, 3, 4, 5, 8, 16}) {
      const std::vector<int> f = kary_round_factors(P, k);
      long prod = 1;
      for (int x : f) {
        EXPECT_GE(x, 2) << "P=" << P << " k=" << k;
        prod *= x;
      }
      EXPECT_EQ(prod, P) << "P=" << P << " k=" << k;
      // Every factor is <= k unless the remaining cofactor had no divisor
      // in [2, k]; then it is a prime (the smallest prime factor).
      for (int x : f) {
        if (x > k) {
          bool prime = x >= 2;
          for (int d = 2; d * d <= x; ++d)
            if (x % d == 0) prime = false;
          EXPECT_TRUE(prime) << "P=" << P << " k=" << k << " factor " << x;
        }
      }
    }
  }
}

TEST(KArySchedule, KnownShapes) {
  EXPECT_EQ(kary_round_factors(16, 2), (std::vector<int>{2, 2, 2, 2}));
  EXPECT_EQ(kary_round_factors(16, 4), (std::vector<int>{4, 4}));
  EXPECT_EQ(kary_round_factors(16, 8), (std::vector<int>{8, 2}));
  EXPECT_EQ(kary_round_factors(16, 16), (std::vector<int>{16}));
  EXPECT_EQ(kary_round_factors(6, 4), (std::vector<int>{3, 2}));
  EXPECT_EQ(kary_round_factors(7, 4), (std::vector<int>{7}));  // prime > k
  EXPECT_EQ(kary_round_factors(12, 4), (std::vector<int>{4, 3}));
  EXPECT_TRUE(kary_round_factors(1, 4).empty());
}

// ---------------------------------------------------------------------------
// merge_tail_inplace_kway unit

TEST(KWayTailMerge, MergesAndKeepsRunOrderOnTies) {
  struct Rec {
    u64 key;
    u64 origin;  // which run the element came from
  };
  auto less = [](const Rec& a, const Rec& b) { return a.key < b.key; };
  // acc run and three chunks with overlapping and equal keys.
  std::vector<Rec> acc{{1, 0}, {4, 0}, {4, 0}, {9, 0}};
  const std::vector<Rec> c1{{2, 1}, {4, 1}, {10, 1}};
  const std::vector<Rec> c2{{4, 2}, {4, 2}};
  const std::vector<Rec> c3{{0, 3}, {11, 3}};
  const usize n1 = acc.size();
  std::vector<std::span<const Rec>> chunks{
      std::span<const Rec>(c1), std::span<const Rec>(c2),
      std::span<const Rec>(c3)};
  acc.resize(n1 + c1.size() + c2.size() + c3.size());
  merge_tail_inplace_kway(std::span<Rec>(acc), n1,
                          std::span<const std::span<const Rec>>(chunks),
                          less);
  ASSERT_EQ(acc.size(), 11u);
  for (usize i = 1; i < acc.size(); ++i)
    EXPECT_LE(acc[i - 1].key, acc[i].key) << "i=" << i;
  // Stability: among equal keys, earlier runs come first (acc, c1, c2, c3).
  for (usize i = 1; i < acc.size(); ++i) {
    if (acc[i - 1].key == acc[i].key) {
      EXPECT_LE(acc[i - 1].origin, acc[i].origin) << "i=" << i;
    }
  }
}

TEST(KWayTailMerge, MatchesStdSortOnRandomRuns) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const usize nruns = 1 + rng() % 6;
    std::vector<u64> acc;
    const usize n1 = rng() % 40;
    for (usize i = 0; i < n1; ++i) acc.push_back(rng() % 1000);
    std::sort(acc.begin(), acc.end());
    std::vector<std::vector<u64>> chunk_store(nruns);
    std::vector<u64> expected = acc;
    for (auto& c : chunk_store) {
      const usize len = rng() % 30;  // empty chunks included
      for (usize i = 0; i < len; ++i) c.push_back(rng() % 1000);
      std::sort(c.begin(), c.end());
      expected.insert(expected.end(), c.begin(), c.end());
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::span<const u64>> chunks;
    for (const auto& c : chunk_store)
      chunks.emplace_back(std::span<const u64>(c));
    acc.resize(expected.size());
    merge_tail_inplace_kway(
        std::span<u64>(acc), n1,
        std::span<const std::span<const u64>>(chunks),
        [](u64 a, u64 b) { return a < b; });
    EXPECT_EQ(acc, expected) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Sort-level grid: k x P x kernel, vs the alltoallv reference

/// Sort the same shards through cfg and through the alltoallv reference;
/// expects byte-identical per-rank outputs and invariant compliance.
void check_kary_sort(int P, SortConfig cfg, workload::GenConfig gen,
                     usize n_rank) {
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64(gen, r, P, n_rank);

  auto run_with = [&](const SortConfig& c_cfg) {
    std::vector<std::vector<u64>> out(P);
    Team team({.nranks = P});
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      sort(c, local, c_cfg);
      EXPECT_TRUE(is_globally_sorted(
          c, std::span<const u64>(local.data(), local.size()),
          [](u64 v) { return v; }));
      out[c.rank()] = std::move(local);
    });
    return out;
  };

  SortConfig ref = cfg;
  ref.exchange = ExchangeAlgorithm::Alltoallv;
  ref.overlap_merge = false;
  const auto expected = run_with(ref);
  const auto got = run_with(cfg);
  for (int r = 0; r < P; ++r) {
    if (cfg.epsilon == 0.0) {
      EXPECT_EQ(got[r].size(), shards[r].size());
    }
    EXPECT_EQ(got[r], expected[r])
        << "P=" << P << " k=" << cfg.exchange_k << " rank " << r;
  }
}

TEST(KAryExchange, GridOverKPathKernel) {
  for (int P : {4, 8, 16}) {
    for (int k : {2, 3, 4, 8, P}) {
      SortConfig cfg;
      cfg.exchange = ExchangeAlgorithm::KAry;
      cfg.exchange_k = k;
      cfg.overlap_merge = true;
      // 600 keys per rank clear the radix crossover, 300 do not.
      check_kary_sort(P, cfg, {}, (k % 2 == 0) ? 600 : 300);
    }
  }
}

TEST(KAryExchange, NonPowerOfTwoP) {
  for (int P : {6, 12}) {
    for (int k : {2, 3, 4, P}) {
      SortConfig cfg;
      cfg.exchange = ExchangeAlgorithm::KAry;
      cfg.exchange_k = k;
      cfg.overlap_merge = true;
      check_kary_sort(P, cfg, {}, 350);
    }
  }
}

TEST(KAryExchange, PrimePUsesOneWideRound) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = 4;  // 7 has no divisor <= 4: single 7-wide round
  cfg.overlap_merge = true;
  check_kary_sort(7, cfg, {}, 400);
}

TEST(KAryExchange, WithoutOverlapFeedsSuperstepFourMerge) {
  for (MergeStrategy m : {MergeStrategy::Sort, MergeStrategy::BinaryTree,
                          MergeStrategy::Tournament}) {
    SortConfig cfg;
    cfg.exchange = ExchangeAlgorithm::KAry;
    cfg.exchange_k = 4;
    cfg.overlap_merge = false;
    cfg.merge = m;
    check_kary_sort(8, cfg, {}, 400);
  }
}

TEST(KAryExchange, EmptyInput) {
  SortConfig cfg;
  cfg.exchange = ExchangeAlgorithm::KAry;
  cfg.exchange_k = 4;
  cfg.overlap_merge = true;
  check_kary_sort(8, cfg, {}, 0);
}

TEST(KAryExchange, AllToSelfLayout) {
  // Each rank's keys already fall inside its own output range: no element
  // moves, every round's payloads are empty.
  const int P = 8;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r) {
    Xoshiro256 rng(hash_mix(77, r));
    shards[r].resize(500);
    for (auto& v : shards[r])
      v = (static_cast<u64>(r) << 32) | (rng() & 0xffffffffu);
  }
  for (int k : {2, 4, P}) {
    std::vector<std::vector<u64>> out(P);
    Team team({.nranks = P});
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      SortConfig cfg;
      cfg.exchange = ExchangeAlgorithm::KAry;
      cfg.exchange_k = k;
      cfg.overlap_merge = true;
      const SortStats st = sort(c, local, cfg);
      EXPECT_EQ(st.elements_sent_off_rank, 0u);
      out[c.rank()] = std::move(local);
    });
    for (int r = 0; r < P; ++r) {
      auto expected = shards[r];
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(out[r], expected) << "k=" << k << " rank " << r;
    }
  }
}

TEST(KAryExchange, SkewedDuplicatesAndSparse) {
  workload::GenConfig zipf;
  zipf.dist = workload::Dist::Zipf;
  workload::GenConfig sparse;
  sparse.sparsity = 0.4;
  sparse.seed = 9;
  for (int k : {3, 8}) {
    SortConfig cfg;
    cfg.exchange = ExchangeAlgorithm::KAry;
    cfg.exchange_k = k;
    cfg.overlap_merge = true;
    check_kary_sort(8, cfg, zipf, 600);
    check_kary_sort(6, cfg, sparse, 300);
  }
}

// ---------------------------------------------------------------------------
// hds::check: clean k-ary run + elide mutation

TEST(KAryCheck, RunsViolationFreeAcrossK) {
  for (int P : {6, 8, 16}) {
    for (int k : {2, 4, P}) {
      runtime::TeamConfig tcfg;
      tcfg.nranks = P;
      tcfg.check.enabled = true;
      std::vector<std::vector<u64>> shards(P);
      for (int r = 0; r < P; ++r)
        shards[r] = workload::generate_u64({}, r, P, 300);
      Team team(tcfg);
      team.run([&](Comm& c) {
        auto local = shards[c.rank()];
        SortConfig cfg;
        cfg.exchange = ExchangeAlgorithm::KAry;
        cfg.exchange_k = k;
        cfg.overlap_merge = true;
        sort(c, local, cfg);
      });
      ASSERT_NE(team.check_report(), nullptr);
      EXPECT_TRUE(team.check_report()->clean())
          << "P=" << P << " k=" << k << "\n"
          << team.check_report()->summary();
      EXPECT_GT(team.check_report()->collectives_checked, 0u);
    }
  }
}

TEST(KAryCheck, ElidedAlltoallJoinIsNoticed) {
  // Mutation test: the k-ary exchange itself is pure P2P, but its send
  // counts come from compute_send_counts' alltoall of the boundary cuts.
  // Logically deleting that collective's happens-before joins must be
  // flagged — proving the checker covers the k-ary schedule's inputs.
  runtime::TeamConfig tcfg;
  tcfg.nranks = 8;
  tcfg.check.enabled = true;
  tcfg.check.elide_op = obs::OpKind::Alltoall;
  tcfg.check.elide_index = 0;
  std::vector<std::vector<u64>> shards(8);
  for (int r = 0; r < 8; ++r)
    shards[r] = workload::generate_u64({}, r, 8, 400);
  Team team(tcfg);
  team.run([&](Comm& c) {
    auto local = shards[c.rank()];
    SortConfig cfg;
    cfg.exchange = ExchangeAlgorithm::KAry;
    cfg.exchange_k = 4;
    cfg.overlap_merge = true;
    sort(c, local, cfg);
  });
  ASSERT_NE(team.check_report(), nullptr);
  EXPECT_GT(team.check_report()->joins_elided, 0u);
  EXPECT_FALSE(team.check_report()->clean());
}

// ---------------------------------------------------------------------------
// Crash during a k-ary exchange: both checkpoint recovery modes, across k

TEST(KAryRecovery, CrashDuringKAryExchangeRecovers) {
  constexpr int P = 8;
  constexpr usize kPerRank = 256;
  std::vector<std::vector<u64>> original(P);
  for (int r = 0; r < P; ++r) {
    Xoshiro256 rng(hash_mix(123, r));
    original[r].resize(kPerRank);
    for (auto& v : original[r]) v = rng();
  }
  std::vector<u64> expected;
  for (const auto& p : original)
    expected.insert(expected.end(), p.begin(), p.end());
  std::sort(expected.begin(), expected.end());

  // After a shrink the configured k-ary exchange runs on the 7 survivors:
  // a prime team size, so every k here takes kary_round_factors' one-wide-
  // round fallback on a subteam.
  for (int k : {2, 4, P}) {
    for (RecoveryMode mode :
         {RecoveryMode::ResumeCheckpoint, RecoveryMode::ShrinkSurvivors}) {
      SCOPED_TRACE(::testing::Message()
                   << recovery_mode_name(mode) << " k=" << k);
      auto plan = std::make_shared<runtime::FaultPlan>();
      // A few ops into the Exchange phase: mid k-ary rounds, after local
      // sort and splitters are checkpointed.
      plan->crash_rank_at_phase_op(1, net::Phase::Exchange, 2);
      runtime::TeamConfig tcfg;
      tcfg.nranks = P;
      tcfg.fault = plan;
      tcfg.watchdog_timeout_s = 10.0;
      Team team(tcfg);
      auto parts = original;
      SortConfig cfg;
      cfg.exchange = ExchangeAlgorithm::KAry;
      cfg.exchange_k = k;
      cfg.overlap_merge = true;
      ResilienceConfig rcfg;
      rcfg.mode = mode;
      ResilienceReport rep;
      (void)sort_resilient(team, parts, cfg, rcfg, &rep);

      EXPECT_GE(rep.failures, 1u);
      std::vector<u64> flat;
      for (const auto& p : parts) flat.insert(flat.end(), p.begin(), p.end());
      EXPECT_EQ(flat, expected);
      if (mode == RecoveryMode::ShrinkSurvivors) {
        EXPECT_GE(rep.recoveries, 1u);
        EXPECT_TRUE(parts[1].empty());  // the dead rank holds no output
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Overlap attribution: merge work is charged, phases reconcile

TEST(KAryOverlap, ChargesBothPhasesAndBeatsFullMergeCharge) {
  const int P = 16;
  std::vector<std::vector<u64>> shards(P);
  for (int r = 0; r < P; ++r)
    shards[r] = workload::generate_u64({}, r, P, 4096);
  auto run_with = [&](bool overlap) {
    Team team({.nranks = P});
    team.run([&](Comm& c) {
      auto local = shards[c.rank()];
      SortConfig cfg;
      cfg.exchange = ExchangeAlgorithm::KAry;
      cfg.exchange_k = 4;
      cfg.overlap_merge = overlap;
      cfg.merge = MergeStrategy::Tournament;
      sort(c, local, cfg);
    });
    return std::make_pair(team.stats().phase_seconds(net::Phase::Exchange) +
                              team.stats().phase_seconds(net::Phase::Merge),
                          team.stats().phase_seconds(net::Phase::Merge));
  };
  const auto with = run_with(true);
  const auto without = run_with(false);
  EXPECT_GT(with.second, 0.0);  // overlapped merges still attributed
  // Hiding the early rounds' merges under the communication window must
  // shrink combined exchange+merge time vs merging after the exchange.
  EXPECT_LT(with.first, without.first);
}

}  // namespace
}  // namespace hds::core
